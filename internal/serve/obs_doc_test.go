package serve

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/tier"
	"repro/internal/tier/accesslog"
)

// TestObservabilityDocMatchesRegistry holds docs/OBSERVABILITY.md to
// the code both ways: after one PUT, GET, ranged GET, scrub and DELETE
// on a tiering, caching server, every metric a table of the doc names
// is in Stats(), and every name in Stats() is in a table. A name with a
// <placeholder> is a pattern: it must match something, and whatever it
// matches is documented.
func TestObservabilityDocMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	// A metric row is `| `name` [/ `name`...] | kind [/ kind] | meaning |`.
	rowRE := regexp.MustCompile("(?m)^\\| (`[^|]+`) \\| (?:counter|gauge|histogram)[ /a-z]* \\|")
	nameRE, holeRE := regexp.MustCompile("`([^`]+)`"), regexp.MustCompile("<[a-z]+>")
	var documented []*regexp.Regexp
	for _, row := range rowRE.FindAllStringSubmatch(string(raw), -1) {
		for _, m := range nameRE.FindAllStringSubmatch(row[1], -1) {
			pat := holeRE.ReplaceAllString(regexp.QuoteMeta(m[1]), ".+")
			documented = append(documented, regexp.MustCompile("^"+pat+"$"))
		}
	}
	if len(documented) < 50 {
		t.Fatalf("only %d metric names parsed out of docs/OBSERVABILITY.md; did its tables change shape?", len(documented))
	}

	srv := newServerWith(t, 2, Config{ReadCacheBytes: 1 << 20,
		Tier: &TierConfig{HotCode: "pentagon", ColdCode: "rs-9-6", PromoteAt: 5, DemoteAt: 1, Interval: 3600}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/files/doc.bin"
	for _, step := range []struct {
		method, url string
		body        []byte
		hdr         []string
		want        int
	}{
		{http.MethodPut, url, content("doc.bin", 3*testBlock), nil, http.StatusCreated},
		{http.MethodGet, url, nil, nil, http.StatusOK},
		{http.MethodGet, url, nil, []string{"Range", "bytes=10-99"}, http.StatusPartialContent},
		{http.MethodPost, ts.URL + "/admin/scrub", nil, nil, http.StatusOK},
		{http.MethodDelete, url, nil, nil, http.StatusOK},
	} {
		if resp, _ := do(t, step.method, step.url, step.body, step.hdr...); resp.StatusCode != step.want {
			t.Fatalf("%s %s: status %d, want %d", step.method, step.url, resp.StatusCode, step.want)
		}
	}

	// The daemon and the heat log register a counter at its first event:
	// make each happen once, on the first shard — a scan, a flush, a
	// second handle's batch and an undecodable frame to tail, the other
	// handle's checkpoint to reload from, a checkpoint of its own.
	sh := srv.shardList()[0]
	if _, err := sh.daemon.Tick(1); err != nil {
		t.Fatal(err)
	}
	other, err := tier.OpenHeatLog(sh.dir, 3600, accesslog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	alien, err := durable.OpenLog(filepath.Join(sh.dir, "tier-heat.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer alien.Close()
	touch := func() error { return sh.heat.TouchExtent("doc.bin", 0, 1) }
	for _, step := range []func() error{
		touch, sh.heat.Flush,
		func() error { return other.TouchExtent("doc.bin", 0, 2) }, other.Flush,
		func() error { return alien.Replay(0, func([]byte) error { return nil }) },
		func() error { return alien.Append([]byte(`{"v":2,"weight":40}`)) },
		sh.heat.Refresh, other.Compact, sh.heat.Refresh, touch, sh.heat.Compact,
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}

	snap := srv.Stats()
	var registered []string
	for name := range snap.Counters {
		registered = append(registered, name)
	}
	for name := range snap.Gauges {
		registered = append(registered, name)
	}
	for name := range snap.Histograms {
		registered = append(registered, name)
	}
	sort.Strings(registered)
	matched := make([]bool, len(documented))
	for _, name := range registered {
		found := false
		for i, re := range documented {
			if re.MatchString(name) {
				matched[i], found = true, true
			}
		}
		if !found {
			t.Errorf("metric %s is registered but in no table of docs/OBSERVABILITY.md", name)
		}
	}
	for i, re := range documented {
		if !matched[i] {
			t.Errorf("docs/OBSERVABILITY.md documents %s, which the server never registered",
				strings.Trim(re.String(), "^$"))
		}
	}
}
