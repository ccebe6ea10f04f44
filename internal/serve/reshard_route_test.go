package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/hdfsraid"
)

// movingName finds a stored name whose shard changes growing from ->
// to, i.e. one a reshard would have to move.
func movingName(t *testing.T, from, to int, stored []string) string {
	t.Helper()
	oldR, newR := NewRing(from, 0), NewRing(to, 0)
	for _, name := range stored {
		if oldR.Shard(name) != newR.Shard(name) {
			return name
		}
	}
	t.Fatal("no stored name moves in this grow; enlarge the working set")
	return ""
}

// TestDualRingRouting exercises the reshard routing contract without a
// mover: after Grow + BeginResharding (data untouched on the old
// shards), every name must still be readable via old-ring fallback, a
// double miss must be 404 when the name is not mid-move and
// 503 + Retry-After when it is, and FinishResharding must restore
// single-ring routing.
func TestDualRingRouting(t *testing.T) {
	srv := newServer(t, 2)
	var stored []string
	for i := 0; i < 32; i++ {
		name := fmt.Sprintf("route-%02d.dat", i)
		if err := srv.Put(name, bytes.NewReader(content(name, 3*testBlock))); err != nil {
			t.Fatal(err)
		}
		stored = append(stored, name)
	}
	mover := movingName(t, 2, 3, stored)

	inflight := map[string]bool{}
	if err := srv.Grow(3); err != nil {
		t.Fatal(err)
	}
	srv.BeginResharding(2, func(name string) bool { return inflight[name] })
	if !srv.Resharding() {
		t.Fatal("Resharding() false after BeginResharding")
	}

	// Every stored name still reads byte-exact: moved-but-not-yet-copied
	// names come back through the old-ring fallback.
	for _, name := range stored {
		data, err := srv.Get(name)
		if err != nil {
			t.Fatalf("get %s during reshard: %v", name, err)
		}
		if !bytes.Equal(data, content(name, 3*testBlock)) {
			t.Fatalf("get %s during reshard: wrong bytes", name)
		}
	}
	if n := srv.Obs().Counter("reshard_fallback_reads_total").Value(); n == 0 {
		t.Fatal("no fallback reads counted, but unmoved names were read")
	}

	// A put during the reshard lands on the new ring and reads back.
	fresh := "route-fresh.dat"
	if err := srv.Put(fresh, bytes.NewReader(content(fresh, testBlock))); err != nil {
		t.Fatal(err)
	}
	if got := srv.ShardOf(fresh); got != NewRing(3, 0).Shard(fresh) {
		t.Fatalf("mid-reshard put routed to shard %d, want new-ring shard", got)
	}

	// Double miss, not mid-move: an honest 404.
	if _, err := srv.Get("route-nowhere.dat"); !errors.Is(err, hdfsraid.ErrNotFound) {
		t.Fatalf("absent name during reshard: got %v, want ErrNotFound", err)
	}
	// Double miss, mid-move: ErrMidMove, and 503 + Retry-After on HTTP.
	// Only ring-disagreeing names can be mid-move (the planned set is
	// exactly the disagreement set), so probe with one.
	var gone string
	for i := 0; ; i++ {
		name := fmt.Sprintf("route-midmove-%d.dat", i)
		if NewRing(2, 0).Shard(name) != NewRing(3, 0).Shard(name) {
			gone = name
			break
		}
	}
	inflight[gone] = true
	if _, err := srv.Get(gone); !errors.Is(err, ErrMidMove) {
		t.Fatalf("mid-move name: got %v, want ErrMidMove", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/files/" + gone)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mid-move GET: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("mid-move 503 carries no Retry-After")
	}
	if n := srv.Obs().Counter("reshard_midmove_unavailable_total").Value(); n == 0 {
		t.Fatal("mid-move 503s not counted")
	}

	// A delete during the reshard must remove the name from BOTH rings'
	// shards, or finishing the move would resurrect it.
	if _, err := srv.Delete(mover); err != nil {
		t.Fatalf("delete %s during reshard: %v", mover, err)
	}
	if _, err := srv.Get(mover); !errors.Is(err, hdfsraid.ErrNotFound) {
		t.Fatalf("deleted name still readable during reshard: %v", err)
	}

	srv.FinishResharding()
	if srv.Resharding() {
		t.Fatal("Resharding() true after FinishResharding")
	}
	if _, err := srv.Get(gone); !errors.Is(err, hdfsraid.ErrNotFound) {
		t.Fatalf("after finish, absent name: got %v, want ErrNotFound", err)
	}
	if e := srv.ReshardEpoch(); e != 2 {
		t.Fatalf("epoch after begin+finish = %d, want 2", e)
	}
}

// TestPutDuringReshardConflicts: a PUT of a name that is stored but
// not yet moved is 409, exactly as it is with no reshard in flight —
// not a 201 that shadows the original on the new ring until the mover
// deletes the original — and every later GET still returns the
// original bytes. A name with no copy anywhere is still 201.
func TestPutDuringReshardConflicts(t *testing.T) {
	srv := newServer(t, 2)
	var stored []string
	for i := 0; i < 32; i++ {
		name := fmt.Sprintf("conflict-%02d.dat", i)
		if err := srv.Put(name, bytes.NewReader(content(name, 3*testBlock))); err != nil {
			t.Fatal(err)
		}
		stored = append(stored, name)
	}
	unmoved := movingName(t, 2, 3, stored)
	if err := srv.Grow(3); err != nil {
		t.Fatal(err)
	}
	srv.BeginResharding(2, func(string) bool { return false })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, body := do(t, http.MethodPut, ts.URL+"/files/"+unmoved, []byte("imposter")); resp.StatusCode != http.StatusConflict {
		t.Fatalf("PUT of an unmoved name mid-reshard: status %d (%s), want 409", resp.StatusCode, body)
	}
	for i := 0; i < 2; i++ {
		resp, got := do(t, http.MethodGet, ts.URL+"/files/"+unmoved, nil)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, content(unmoved, 3*testBlock)) {
			t.Fatalf("GET %s after the refused PUT: status %d, %d bytes; want the original", unmoved, resp.StatusCode, len(got))
		}
	}
	if err := srv.Put(unmoved, bytes.NewReader([]byte("imposter"))); !errors.Is(err, hdfsraid.ErrExists) {
		t.Fatalf("Server.Put of an unmoved name: %v, want ErrExists", err)
	}
	if resp, body := do(t, http.MethodPut, ts.URL+"/files/conflict-new.dat", []byte("fresh")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT of a new name mid-reshard: status %d (%s), want 201", resp.StatusCode, body)
	}
}
