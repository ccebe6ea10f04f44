package chaos

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// runSeed runs one seeded chaos run and fails the test on any broken
// invariant: a response that lied, a vacuous run, or an end state that
// Settle rejects.
func runSeed(t *testing.T, cfg Config) {
	t.Helper()
	res, err := Run(t.TempDir(), cfg)
	if err != nil {
		t.Fatalf("invariant broken: %v\nresult: %+v", err, res)
	}
	t.Logf("ops %v, %d failed, faults %+v", res.Ops, res.Errs, res.Faults)
}

// TestChaosInvariant is the CI gate on the whole fault-handling stack:
// concurrent HTTP and in-process reads (every success verified), puts,
// delete-and-re-puts, manual extent moves, shard recoveries and node
// outages run over faultfs-injected shards behind the serve front door,
// with the read cache on and the tier daemons moving and scrubbing;
// then, faults off, Settle must find every byte exact.
func TestChaosInvariant(t *testing.T) { runSeed(t, Config{Seed: 7}) }

// TestNetChaosInvariant draws a second seed at the full op budget.
func TestNetChaosInvariant(t *testing.T) { runSeed(t, Config{Seed: 9}) }

// TestChaosSecondSeed and TestNetChaosSecondSeed vary the draw so the
// gate does not overfit one lucky sequence; kept short since CI runs
// them all under -race.
func TestChaosSecondSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("two seeds are enough under -short")
	}
	runSeed(t, Config{Seed: 1234, Ops: 240})
}

func TestNetChaosSecondSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("two seeds are enough under -short")
	}
	runSeed(t, Config{Seed: 4321, Ops: 240})
}

// stubFiles is a front door that stores PUTs, serves GETs (ranges too)
// and DELETEs, and answers 503 + Retry-After to the first busy GETs of
// every name, as a reshard does for a name mid-move.
func stubFiles(busy int) *httptest.Server {
	var mu sync.Mutex
	files, hits := map[string][]byte{}, map[string]int{}
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /files/{name}", func(w http.ResponseWriter, r *http.Request) {
		var b bytes.Buffer
		b.ReadFrom(r.Body)
		mu.Lock()
		files[r.PathValue("name")] = b.Bytes()
		mu.Unlock()
		w.WriteHeader(http.StatusCreated)
	})
	mux.HandleFunc("DELETE /files/{name}", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		delete(files, r.PathValue("name"))
		mu.Unlock()
	})
	mux.HandleFunc("GET /files/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		mu.Lock()
		hits[name]++
		data, n := files[name], hits[name]
		mu.Unlock()
		if n <= busy {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "mid-move", http.StatusServiceUnavailable)
			return
		}
		http.ServeContent(w, r, name, time.Time{}, bytes.NewReader(data))
	})
	return httptest.NewServer(mux)
}

// TestRetryOn503 pins the reshard contract on the client side: a 503 +
// Retry-After (a name mid-move) is retried with backoff and, once the
// server answers, surfaces neither as an error nor as a violation.
func TestRetryOn503(t *testing.T) {
	ts := stubFiles(2)
	defer ts.Close()
	c, err := NewClient(ts.URL, 3)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	time.AfterFunc(50*time.Millisecond, func() { close(stop) })
	res, err := c.Load(stop)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retried503 == 0 {
		t.Fatal("no 503 retries recorded against a 503ing server")
	}
	if res.Errs != 0 {
		t.Fatalf("%d errors: retried 503s must not count as failures", res.Errs)
	}
}

// TestExhausted503IsErrorNotIntegrity pins the other half: a 503 that
// never clears costs availability (an error after the retry budget) but
// is never a violation — the server said "not now", it never lied.
func TestExhausted503IsErrorNotIntegrity(t *testing.T) {
	ts := stubFiles(1 << 30)
	defer ts.Close()
	c, err := NewClient(ts.URL, 5)
	if err != nil {
		t.Fatal(err)
	}
	c.read("seed-00", false, nil)
	res, err := c.result("")
	if err != nil {
		t.Fatal(err)
	}
	if res.Errs != 1 || res.Retried503 != retry503Budget || len(res.Violations) != 0 {
		t.Fatalf("a never-clearing 503: %+v, want 1 error, %d retries, no violation", res, retry503Budget)
	}
}
