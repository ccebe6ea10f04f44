package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// countingReads is a passthrough BlockIO that counts block opens.
type countingReads struct{ reads atomic.Int64 }

func (c *countingReads) Open(path string) (io.ReadCloser, error) {
	c.reads.Add(1)
	return os.Open(path)
}
func (*countingReads) WriteFile(path string, data []byte, perm os.FileMode) error {
	return os.WriteFile(path, data, perm)
}
func (*countingReads) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }
func (*countingReads) Remove(path string) error             { return os.Remove(path) }

func do(t *testing.T, method, url string, body []byte, hdr ...string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, got
}

// TestHeadReadsNothing: HEAD answers from the manifest — the length a
// GET would send, no block opened, no heat fed, no read recorded — and
// misses exactly as a GET does.
func TestHeadReadsNothing(t *testing.T) {
	srv := newServer(t, 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	name := "head.dat"
	data := content(name, 9*testBlock+5)
	if resp, _ := do(t, http.MethodPut, ts.URL+"/files/"+name, data); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status %d", resp.StatusCode)
	}
	bio := &countingReads{}
	var heat atomic.Int64
	for i := 0; i < srv.NumShards(); i++ {
		srv.Shard(i).SetBlockIO(bio)
		srv.Shard(i).OnReadExtent = func(string, int) { heat.Add(1) }
	}
	resp, body := do(t, http.MethodHead, ts.URL+"/files/"+name, nil)
	if resp.StatusCode != http.StatusOK || len(body) != 0 ||
		resp.Header.Get("Content-Length") != strconv.Itoa(len(data)) ||
		resp.Header.Get("Accept-Ranges") != "bytes" ||
		resp.Header.Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("HEAD: status %d, headers %v", resp.StatusCode, resp.Header)
	}
	snap := srv.Stats()
	if bio.reads.Load() != 0 || heat.Load() != 0 || snap.Histograms["store_get_intact_ns"].Count != 0 {
		t.Fatalf("HEAD opened %d blocks, fed heat %d times, recorded %d reads; want none",
			bio.reads.Load(), heat.Load(), snap.Histograms["store_get_intact_ns"].Count)
	}
	if resp, _ := do(t, http.MethodHead, ts.URL+"/files/absent.dat", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HEAD of a missing file: status %d", resp.StatusCode)
	}
	// The GET it describes: same length, and it does read and warm.
	if resp, body := do(t, http.MethodGet, ts.URL+"/files/"+name, nil); resp.StatusCode != http.StatusOK || !bytes.Equal(body, data) {
		t.Fatalf("GET after HEAD: status %d", resp.StatusCode)
	}
	if bio.reads.Load() == 0 || heat.Load() == 0 {
		t.Fatal("the control GET read no block or fed no heat: the probes are dead")
	}
}

// TestCachedNameReplacedOverHTTP: with the read cache on, a name that
// is served from memory, deleted and put again with other bytes comes
// back as the new bytes on every path — and an empty file, and a range
// past the end, answer as they always did.
func TestCachedNameReplacedOverHTTP(t *testing.T) {
	srv := newServerWith(t, 2, Config{ReadCacheBytes: 1 << 20})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/files/swap.dat"
	const size = 14*testBlock + 9 // three extents of six blocks
	for gen := int64(0); gen < 3; gen++ {
		data := content(fmt.Sprintf("swap-gen-%d", gen), size)
		if resp, _ := do(t, http.MethodPut, url, data); resp.StatusCode != http.StatusCreated {
			t.Fatalf("gen %d PUT status %d", gen, resp.StatusCode)
		}
		hits := srv.Stats().Counters["store_cache_hits_total"]
		for i := 0; i < 3; i++ {
			if resp, body := do(t, http.MethodGet, url, nil); resp.StatusCode != http.StatusOK || !bytes.Equal(body, data) {
				t.Fatalf("gen %d GET %d: status %d, bytes equal %v", gen, i, resp.StatusCode, bytes.Equal(body, data))
			}
			resp, body := do(t, http.MethodGet, url, nil, "Range", "bytes=1000-30000")
			if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, data[1000:30001]) {
				t.Fatalf("gen %d ranged GET %d: status %d, bytes equal %v", gen, i, resp.StatusCode, bytes.Equal(body, data[1000:30001]))
			}
		}
		snap := srv.Stats()
		if snap.Counters["store_cache_hits_total"] <= hits || snap.Gauges["store_cache_bytes"] != size {
			t.Fatalf("gen %d: hits %d -> %d, %v bytes cached; want hits and %d bytes",
				gen, hits, snap.Counters["store_cache_hits_total"], snap.Gauges["store_cache_bytes"], size)
		}
		if resp, _ := do(t, http.MethodDelete, url, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("gen %d DELETE status %d", gen, resp.StatusCode)
		}
		if got := srv.Stats().Gauges["store_cache_bytes"]; got != 0 {
			t.Fatalf("gen %d: delete left %v bytes cached", gen, got)
		}
	}
	if resp, _ := do(t, http.MethodPut, url, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("empty PUT status %d", resp.StatusCode)
	}
	if resp, body := do(t, http.MethodGet, url, nil); resp.StatusCode != http.StatusOK || len(body) != 0 || resp.Header.Get("Content-Length") != "0" {
		t.Fatalf("GET of an empty file: status %d, %d bytes, headers %v", resp.StatusCode, len(body), resp.Header)
	}
	for _, hdr := range []string{"bytes=0-", "bytes=0-0", "bytes=-0"} {
		if resp, _ := do(t, http.MethodGet, url, nil, "Range", hdr); resp.StatusCode != http.StatusRequestedRangeNotSatisfiable || resp.Header.Get("Content-Range") != "bytes */0" {
			t.Fatalf("%s of an empty file: status %d, Content-Range %q", hdr, resp.StatusCode, resp.Header.Get("Content-Range"))
		}
	}
}

// stalledWriter is a ResponseWriter whose client stops reading: its
// first body write blocks until released.
type stalledWriter struct {
	httptest.ResponseRecorder
	stalled, release chan struct{}
	writes           int
}

func (w *stalledWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes == 1 {
		close(w.stalled)
		<-w.release
	}
	return w.ResponseRecorder.Write(p)
}

// TestStalledResponseHoldsNoLock: the serve path writes to the socket
// only after releasing the store's lock, so a client that stops reading
// mid-body delays neither a put nor a delete on the same shard.
func TestStalledResponseHoldsNoLock(t *testing.T) {
	srv := newServerWith(t, 1, Config{ReadCacheBytes: 1 << 20})
	name := "slow.dat"
	data := content(name, 15*testBlock) // three extents
	if err := srv.Put(name, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	w := &stalledWriter{ResponseRecorder: *httptest.NewRecorder(), stalled: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/files/"+name, nil))
	}()
	<-w.stalled
	writes := make(chan error, 1)
	go func() {
		err := srv.Put("other.dat", bytes.NewReader(content("other.dat", testBlock)))
		if err == nil {
			_, err = srv.Delete("other.dat")
		}
		writes <- err
	}()
	select {
	case err := <-writes:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a put and a delete waited on a response stalled mid-body: a store lock is held across the write")
	}
	close(w.release)
	<-served
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), data) || w.writes != 3 {
		t.Fatalf("stalled GET finished with status %d, %d bytes in %d writes", w.Code, w.Body.Len(), w.writes)
	}
}

// TestGrownShardIsWiredLikeTheRest: a shard a reshard adds comes up
// through the same helper as the ones Open found — shared read cache
// attached, heat log wired.
func TestGrownShardIsWiredLikeTheRest(t *testing.T) {
	srv := newServerWith(t, 2, Config{ReadCacheBytes: 1 << 20})
	if err := srv.Grow(3); err != nil {
		t.Fatal(err)
	}
	sh := srv.shardList()[2]
	if sh.heat == nil || sh.store.OnReadExtent == nil {
		t.Fatal("grown shard has no heat wiring")
	}
	data := content("grown.dat", 3*testBlock)
	if err := sh.store.Put("grown.dat", data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got, err := sh.store.Get("grown.dat"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("get %d from the grown shard: %v", i, err)
		}
	}
	snap, _ := srv.ShardStats(2)
	if snap.Counters["store_cache_hits_total"] != 1 || srv.Stats().Gauges["store_cache_bytes"] != float64(len(data)) {
		t.Fatalf("grown shard: %d cache hits, %v bytes in the shared cache; want 1 and %d",
			snap.Counters["store_cache_hits_total"], srv.Stats().Gauges["store_cache_bytes"], len(data))
	}
}
