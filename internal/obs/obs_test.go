package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrent: sharded adds from many goroutines sum
// exactly; the race detector exercises the shard-selection path.
func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const writers = 16
	const perWriter = 50000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
}

// TestGaugeConcurrent: Add deltas from concurrent goroutines balance
// out exactly (CAS loop), and Set overrides.
func TestGaugeConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				g.Add(1.5)
				g.Add(-0.5)
			}
		}()
	}
	wg.Wait()
	if got, want := g.Value(), 8*10000*1.0; got != want {
		t.Fatalf("gauge = %g, want %g", got, want)
	}
	g.Set(-3.25)
	if g.Value() != -3.25 {
		t.Fatalf("Set: gauge = %g", g.Value())
	}
}

// TestRegistryGetOrCreate: the same name resolves to the same
// instrument, including under concurrent first use.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	counters := make([]*Counter, 8)
	for i := range counters {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			counters[i] = r.Counter("shared")
			counters[i].Inc()
		}()
	}
	wg.Wait()
	for i := 1; i < len(counters); i++ {
		if counters[i] != counters[0] {
			t.Fatal("concurrent Counter(\"shared\") returned distinct instruments")
		}
	}
	if r.Counter("shared").Value() != 8 {
		t.Fatalf("shared counter = %d, want 8", r.Counter("shared").Value())
	}
	if r.Histogram("h") != r.Histogram("h") || r.Gauge("g") != r.Gauge("g") ||
		r.Trace("t", 4) != r.Trace("t", 4) {
		t.Fatal("get-or-create returned distinct instruments for one name")
	}
}

// TestTraceRing: the ring keeps the newest `capacity` events in order
// and sequence numbers keep climbing past the wrap.
func TestTraceRing(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Type: "move", Detail: string(rune('a' + i))})
	}
	events := tr.Events()
	if len(events) != 4 || tr.Len() != 4 {
		t.Fatalf("ring kept %d events, want 4", len(events))
	}
	for i, e := range events {
		if want := string(rune('a' + 6 + i)); e.Detail != want {
			t.Errorf("event %d detail %q, want %q", i, e.Detail, want)
		}
		if e.Seq != uint64(7+i) {
			t.Errorf("event %d seq %d, want %d", i, e.Seq, 7+i)
		}
		if e.Time == 0 {
			t.Errorf("event %d missing timestamp", i)
		}
	}
}

// TestSnapshotRoundTripAndMerge: snapshot → JSON file → load → merge
// accumulates counters and histograms and bounds the trace window.
func TestSnapshotRoundTripAndMerge(t *testing.T) {
	r := NewRegistry()
	r.Counter("reads").Add(5)
	r.Gauge("tokens").Set(12.5)
	r.Histogram("lat_ns").Observe(1000)
	r.Trace("journal", 8).Emit(Event{Type: "staged", Name: "f", Ext: 1})

	path := filepath.Join(t.TempDir(), "obs-metrics.json")
	if err := WriteSnapshotFile(path, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	disk, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A second "process" adds more and merges over the persisted state.
	r2 := NewRegistry()
	r2.Counter("reads").Add(3)
	r2.Gauge("tokens").Set(7)
	r2.Histogram("lat_ns").Observe(5000)
	r2.Trace("journal", 8).Emit(Event{Type: "committed", Name: "f", Ext: 1})
	disk.Merge(r2.Snapshot())

	if disk.Counters["reads"] != 8 {
		t.Errorf("merged counter = %d, want 8", disk.Counters["reads"])
	}
	if disk.Gauges["tokens"] != 7 {
		t.Errorf("merged gauge = %g, want newest 7", disk.Gauges["tokens"])
	}
	if h := disk.Histograms["lat_ns"]; h.Count != 2 || h.Max != 5000 || h.Min != 1000 {
		t.Errorf("merged histogram %+v", h)
	}
	events := disk.Traces["journal"]
	if len(events) != 2 || events[0].Type != "staged" || events[1].Type != "committed" {
		t.Fatalf("merged trace %+v", events)
	}
	if events[0].Seq != 1 || events[1].Seq != 2 {
		t.Fatalf("merged trace not resequenced: %+v", events)
	}

	// A missing file is an empty snapshot, not an error.
	if s, err := ReadSnapshotFile(filepath.Join(t.TempDir(), "nope.json")); err != nil || len(s.Counters) != 0 {
		t.Fatalf("missing file: %+v, %v", s, err)
	}
}

// TestSnapshotFileNeverTorn: every one-shot CLI command rewrites the
// persisted snapshot on its way out, so a reader (the next command's
// merge) must never catch it truncated or half-written: while one
// goroutine rewrites a large snapshot, ReadSnapshotFile only ever
// returns complete ones.
func TestSnapshotFileNeverTorn(t *testing.T) {
	r := NewRegistry()
	const counters = 2000
	for i := 0; i < counters; i++ {
		r.Counter(fmt.Sprintf("counter_with_a_long_name_%04d_total", i)).Add(int64(i))
	}
	snap := r.Snapshot()
	path := filepath.Join(t.TempDir(), "obs-metrics.json")
	if err := WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			if err := WriteSnapshotFile(path, snap); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for reads := 0; ; reads++ {
		got, err := ReadSnapshotFile(path)
		if err != nil || len(got.Counters) != counters {
			t.Fatalf("read %d: %d counters, err %v; want %d and no error", reads, len(got.Counters), err, counters)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

// TestHandlerExpvarShape: the HTTP endpoint serves one flat JSON
// object with every metric as a top-level key, the expvar contract.
func TestHandlerExpvarShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("store_reads_total").Add(7)
	r.Gauge("daemon_bucket_tokens").Set(3)
	r.Histogram("store_get_intact_ns").Observe(1500)
	r.Trace("journal", 4).Emit(Event{Type: "staged"})

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type %q", ct)
	}
	var flat map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&flat); err != nil {
		t.Fatalf("endpoint did not serve parseable JSON: %v", err)
	}
	for _, key := range []string{"store_reads_total", "daemon_bucket_tokens", "store_get_intact_ns", "trace_journal"} {
		if _, ok := flat[key]; !ok {
			t.Errorf("endpoint missing key %q", key)
		}
	}
	var n int64
	if err := json.Unmarshal(flat["store_reads_total"], &n); err != nil || n != 7 {
		t.Errorf("counter over HTTP = %s", flat["store_reads_total"])
	}
	var h HistogramSnapshot
	if err := json.Unmarshal(flat["store_get_intact_ns"], &h); err != nil || h.Count != 1 {
		t.Errorf("histogram over HTTP = %s", flat["store_get_intact_ns"])
	}
}

// TestWriteText smoke-checks the human rendering: every metric name
// appears and nothing panics on edge content.
func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Inc()
	r.Gauge("b_level").Set(1)
	r.Histogram("c_ns") // zero observations
	r.Trace("journal", 4).Emit(Event{Type: "staged", Name: "f", Ext: 0, Detail: "x -> y"})
	var sb strings.Builder
	r.Snapshot().WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"a_total", "b_level", "c_ns", "staged", "f[x0]"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}
