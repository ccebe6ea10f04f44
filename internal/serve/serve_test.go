package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	_ "repro/internal/code/heptlocal"
	_ "repro/internal/code/polygon"
	_ "repro/internal/code/raidm"
	_ "repro/internal/code/replication"
	_ "repro/internal/code/rs"
)

const testBlock = 1 << 12

// newServer creates and opens n shards under a temp root.
func newServer(t *testing.T, n int) *Server { return newServerWith(t, n, Config{}) }

func newServerWith(t *testing.T, n int, cfg Config) *Server {
	t.Helper()
	root := t.TempDir()
	if err := CreateShards(root, "rs-9-6", testBlock, 6, n); err != nil {
		t.Fatal(err)
	}
	srv, err := Open(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// content is the deterministic payload for a name: any reader can
// verify bytes without remembering what a writer stored.
func content(name string, n int) []byte {
	rng := rand.New(rand.NewSource(int64(hashKey(name))))
	data := make([]byte, n)
	rng.Read(data)
	return data
}

// TestRingStableAndBalanced pins the ring's two contracts: the same
// name maps to the same shard across independently built rings (the
// mapping is a pure function of name and shard count), and keys spread
// over shards without gross imbalance.
func TestRingStableAndBalanced(t *testing.T) {
	const shards, keys = 5, 10000
	r1, r2 := newRing(shards, 0), newRing(shards, 0)
	counts := make([]int, shards)
	for i := 0; i < keys; i++ {
		name := fmt.Sprintf("file-%d.dat", i)
		a, b := r1.shardOf(name), r2.shardOf(name)
		if a != b {
			t.Fatalf("unstable mapping for %q: %d vs %d", name, a, b)
		}
		counts[a]++
	}
	for s, c := range counts {
		if c < keys/shards/2 || c > keys*2/shards {
			t.Fatalf("shard %d owns %d of %d keys: imbalanced %v", s, c, keys, counts)
		}
	}
}

// TestRingGrowMovesFewKeys is the consistent-hashing property: adding
// one shard remaps roughly 1/(n+1) of the keyspace, not all of it.
func TestRingGrowMovesFewKeys(t *testing.T) {
	const keys = 10000
	r4, r5 := newRing(4, 0), newRing(5, 0)
	moved := 0
	for i := 0; i < keys; i++ {
		name := fmt.Sprintf("file-%d.dat", i)
		if r4.shardOf(name) != r5.shardOf(name) {
			moved++
		}
	}
	// Expect ~20%; fail only at 2x that, far below modulo hashing's ~80%.
	if moved > keys*2/5 {
		t.Fatalf("growing 4->5 shards moved %d/%d keys", moved, keys)
	}
	if moved == 0 {
		t.Fatal("growing the ring moved no keys at all")
	}
}

// TestHTTPRoundTrip drives the full HTTP surface: chunked PUT, whole
// and ranged GET, list, delete, and the error statuses.
func TestHTTPRoundTrip(t *testing.T) {
	srv := newServer(t, 4)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	name := "round.html"
	data := append([]byte("<html><body>"), content(name, 7*testBlock+123)...)
	// io.Pipe forces a chunked request body — the streaming ingest path.
	pr, pw := io.Pipe()
	go func() {
		pw.Write(data)
		pw.Close()
	}()
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/files/"+name, pr)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusCreated || ct != "application/json" {
		t.Fatalf("PUT status %d, Content-Type %q; want 201, application/json", resp.StatusCode, ct)
	}

	// Stored bytes are opaque: a 200 or 206 names them octet-stream and
	// forbids sniffing, whatever they look like.
	get := func(rangeHdr string) (int, []byte, string) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/files/"+name, nil)
		if rangeHdr != "" {
			req.Header.Set("Range", rangeHdr)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusPartialContent {
			if ct, opt := resp.Header.Get("Content-Type"), resp.Header.Get("X-Content-Type-Options"); ct != "application/octet-stream" || opt != "nosniff" {
				t.Errorf("GET %q: Content-Type %q, X-Content-Type-Options %q", rangeHdr, ct, opt)
			}
		}
		return resp.StatusCode, body, resp.Header.Get("Content-Range")
	}

	if code, body, _ := get(""); code != http.StatusOK || !bytes.Equal(body, data) {
		t.Fatalf("whole GET: status %d, %d bytes", code, len(body))
	}
	n := len(data)
	for _, tc := range []struct {
		hdr    string
		lo, hi int // the bytes a 206 carries; lo < 0 = 416
	}{
		{"bytes=100-299", 100, 300},
		{"bytes=0-0", 0, 1},
		{"bytes=0-9223372036854775807", 0, n},
		{fmt.Sprintf("bytes=%d-", n-50), n - 50, n},
		{"bytes=-75", n - 75, n},
		{fmt.Sprintf("bytes=-%d", n+10), 0, n}, // a suffix longer than the file is the file
		{fmt.Sprintf("bytes=%d-", n+10), -1, 0},
		{"bytes=-0", -1, 0}, // a suffix of no bytes is unsatisfiable, not malformed
	} {
		code, body, cr := get(tc.hdr)
		wantCode, wantCR := http.StatusPartialContent, fmt.Sprintf("bytes %d-%d/%d", tc.lo, tc.hi-1, n)
		if tc.lo < 0 {
			wantCode, wantCR, tc.lo = http.StatusRequestedRangeNotSatisfiable, fmt.Sprintf("bytes */%d", n), 0
		}
		if code != wantCode || cr != wantCR || (code == http.StatusPartialContent && !bytes.Equal(body, data[tc.lo:tc.hi])) {
			t.Fatalf("GET %q: status %d, %d bytes, Content-Range %q; want %d, %q", tc.hdr, code, len(body), cr, wantCode, wantCR)
		}
	}

	// Duplicate PUT conflicts.
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/files/"+name, bytes.NewReader(data))
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate PUT status %d, want 409", resp.StatusCode)
	}

	// Delete, then 404.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/files/"+name, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	if code, _, _ := get(""); code != http.StatusNotFound {
		t.Fatalf("GET after delete: status %d, want 404", code)
	}
}

// TestTruncatedPutRefused: a PUT whose body ends short of its declared
// Content-Length — the client sends 102,400 of 163,840 bytes and
// half-closes — may fail but never lies: no 201, and the name stays
// unknown to a later GET.
func TestTruncatedPutRefused(t *testing.T) {
	srv := newServer(t, 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(conn, "PUT /files/cut.bin HTTP/1.1\r\nHost: test\r\nContent-Length: 163840\r\n\r\n")
	if _, err := conn.Write(content("cut.bin", 102400)); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusCreated {
		t.Fatal("truncated PUT answered 201 Created")
	}
	get, err := http.Get(ts.URL + "/files/cut.bin")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after a truncated PUT: status %d, want 404", get.StatusCode)
	}
}

// TestConcurrentRoundTrips hammers the router with concurrent puts,
// gets, ranged reads and deletes across every shard — run under -race,
// this is the no-shared-unsynchronized-state proof for the serve
// layer. Every read verifies bytes exactly.
func TestConcurrentRoundTrips(t *testing.T) {
	srv := newServer(t, 4)
	const workers = 16
	const perWorker = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("w%d-f%d.dat", w, i)
				size := testBlock/2 + int(hashKey(name)%7)*testBlock
				data := content(name, size)
				if err := srv.Put(name, bytes.NewReader(data)); err != nil {
					errs <- fmt.Errorf("put %s: %w", name, err)
					return
				}
				got, err := srv.Get(name)
				if err != nil {
					errs <- fmt.Errorf("get %s: %w", name, err)
					return
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("get %s: wrong bytes", name)
					return
				}
				if size > 10 {
					p := make([]byte, 10)
					if _, err := srv.ReadAt(p, name, int64(size/2)); err != nil {
						errs <- fmt.Errorf("readat %s: %w", name, err)
						return
					}
					if !bytes.Equal(p, data[size/2:size/2+10]) {
						errs <- fmt.Errorf("readat %s: wrong bytes", name)
						return
					}
				}
				if i%3 == 0 {
					if _, err := srv.Delete(name); err != nil {
						errs <- fmt.Errorf("delete %s: %w", name, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestNoCrossShardBlocking wedges one shard's ingest of one name (a
// PutReader whose body never arrives holds that name's ingest lock)
// and proves traffic to every other shard — and to other names — still
// completes. If any lock were shared across shards, the wedged put
// would stall the whole fleet.
func TestNoCrossShardBlocking(t *testing.T) {
	srv := newServer(t, 4)

	// Find a name per shard.
	names := map[int]string{}
	for i := 0; len(names) < srv.NumShards(); i++ {
		n := fmt.Sprintf("probe-%d.dat", i)
		if _, taken := names[srv.ShardOf(n)]; !taken {
			names[srv.ShardOf(n)] = n
		}
	}

	// Wedge shard 0: a put whose reader blocks until released.
	wedged := names[0]
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- srv.Put(wedged, &blockingReader{release: release})
	}()
	// Give the wedged put time to take its ingest lock.
	time.Sleep(50 * time.Millisecond)

	// Every other shard (and another name on shard 0) must round-trip
	// promptly while the wedge holds.
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for sh := 1; sh < srv.NumShards(); sh++ {
			name := names[sh]
			data := content(name, testBlock)
			if err := srv.Put(name, bytes.NewReader(data)); err != nil {
				t.Errorf("shard %d put: %v", sh, err)
				return
			}
			got, err := srv.Get(name)
			if err != nil || !bytes.Equal(got, data) {
				t.Errorf("shard %d get: err=%v", sh, err)
				return
			}
		}
		other := ""
		for i := 0; ; i++ {
			n := fmt.Sprintf("other-%d.dat", i)
			if srv.ShardOf(n) == 0 && n != wedged {
				other = n
				break
			}
		}
		if err := srv.Put(other, bytes.NewReader(content(other, testBlock))); err != nil {
			t.Errorf("same-shard other-name put: %v", err)
		}
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("operations on unwedged shards did not complete while one ingest was stalled")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("wedged put failed after release: %v", err)
	}
}

// blockingReader yields one byte then blocks until released.
type blockingReader struct {
	release <-chan struct{}
	sent    atomic.Bool
}

func (b *blockingReader) Read(p []byte) (int, error) {
	if !b.sent.Swap(true) {
		p[0] = 'x'
		return 1, nil
	}
	<-b.release
	return 0, io.EOF
}

// TestStatsMergesShards proves /stats is the sum of the shards: bytes
// ingested into different shards appear once each in the merged
// counter, and latency histogram counts accumulate across registries.
func TestStatsMergesShards(t *testing.T) {
	srv := newServer(t, 4)
	var total int64
	perShard := map[int]int64{}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("m%d.dat", i)
		size := testBlock * (1 + i%3)
		if err := srv.Put(name, bytes.NewReader(content(name, size))); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Get(name); err != nil {
			t.Fatal(err)
		}
		total += int64(size)
		perShard[srv.ShardOf(name)] += int64(size)
	}
	if len(perShard) < 2 {
		t.Fatalf("test files all landed on one shard: %v", perShard)
	}
	merged := srv.Stats()
	if got := merged.Counters["store_bytes_in_total"]; got != total {
		t.Fatalf("merged store_bytes_in_total = %d, want %d", got, total)
	}
	var hists int64
	var shardSum int64
	for i := 0; i < srv.NumShards(); i++ {
		snap, ok := srv.ShardStats(i)
		if !ok {
			t.Fatalf("no stats for shard %d", i)
		}
		if snap.Counters["store_bytes_in_total"] != perShard[i] {
			t.Fatalf("shard %d bytes_in = %d, want %d", i, snap.Counters["store_bytes_in_total"], perShard[i])
		}
		shardSum += snap.Counters["store_bytes_in_total"]
		hists += snap.Histograms["store_put_ns"].Count
	}
	if shardSum != total {
		t.Fatalf("shard sum %d != total %d", shardSum, total)
	}
	if merged.Histograms["store_put_ns"].Count != hists || hists == 0 {
		t.Fatalf("merged put histogram count %d, shards total %d", merged.Histograms["store_put_ns"].Count, hists)
	}
}

// FuzzParseRange feeds parseRange arbitrary Range header bytes: it
// never panics, and what it accepts is one of the four shapes its
// callers rely on — a suffix (-k, rest), the empty suffix (0, 0), an
// open range (a, rest) or a closed one (a, count ≥ 1, a+count no
// overflow) — which hdfsraid's FuzzClipRange shows clip to
// 0 ≤ lo ≤ hi ≤ length for every length.
func FuzzParseRange(f *testing.F) {
	for _, seed := range []string{"", "bytes=0-0", "bytes=100-299", "bytes=5-", "bytes=-75", "bytes=-0",
		"bytes=0-9223372036854775807", "bytes=9223372036854775807-9223372036854775807",
		"bytes=-9223372036854775807", "bytes=-9223372036854775808", "bytes=--5", "bytes=1-2,4-5", "bytes= 3-4 ", "lines=1-2"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, h string) {
		off, n, ok := parseRange(h)
		switch {
		case !ok:
		case off < 0 && n == -1 && off > math.MinInt64:
		case off == 0 && n == 0:
		case off >= 0 && n == -1:
		case off >= 0 && n >= 1 && off+n > off:
		default:
			t.Fatalf("parseRange(%q) accepted (%d, %d)", h, off, n)
		}
	})
}
