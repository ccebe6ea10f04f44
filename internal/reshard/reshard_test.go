package reshard

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	_ "repro/internal/code/rs"
	"repro/internal/loadgen"
	"repro/internal/serve"
)

const (
	testBlock = 1024
	testExt   = 4
)

// seedRoot creates a sharded serving root and fills it with files of
// assorted sizes (sub-block through multi-extent), returning the
// deterministic reference contents.
func seedRoot(t *testing.T, shards, files int) (string, *serve.Server, map[string][]byte) {
	t.Helper()
	root := t.TempDir()
	if err := serve.CreateShards(root, "rs-9-6", testBlock, testExt, shards); err != nil {
		t.Fatal(err)
	}
	// The shared read cache is on: moved, deleted and re-put names must
	// read back exact with it, on old and grown shards alike.
	srv, err := serve.Open(root, serve.Config{ReadCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ref := make(map[string][]byte, files)
	extBytes := testBlock * testExt
	for i := 0; i < files; i++ {
		name := fmt.Sprintf("seed-%03d.dat", i)
		size := 1 + (i*331)%(3*extBytes)
		data := loadgen.Content(name, size)
		if err := srv.Put(name, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		ref[name] = data
	}
	return root, srv, ref
}

// plannedMoves brute-forces the ring delta the planner should find.
func plannedMoves(vnodes, from, to int, names map[string][]byte) int {
	oldR, newR := serve.NewRing(from, vnodes), serve.NewRing(to, vnodes)
	moves := 0
	for name := range names {
		if oldR.Shard(name) != newR.Shard(name) {
			moves++
		}
	}
	return moves
}

// verifySettled asserts the post-reshard end state: pending record gone,
// single-ring routing, every name byte-exact on exactly its new-ring
// shard (source copies deleted), and every shard fsck-healthy.
func verifySettled(t *testing.T, root string, srv *serve.Server, ref map[string][]byte, to int) {
	t.Helper()
	if p, err := ReadPending(root); err != nil || p != nil {
		t.Fatalf("pending record after reshard: %v, err %v (want gone)", p, err)
	}
	if srv.Resharding() {
		t.Fatal("dual-ring routing still active after reshard finished")
	}
	if n := srv.NumShards(); n != to {
		t.Fatalf("%d shards after reshard, want %d", n, to)
	}
	ring := serve.NewRing(to, srv.Vnodes())
	for name, want := range ref {
		got, err := srv.Get(name)
		if err != nil {
			t.Fatalf("get %s after reshard: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("get %s after reshard: wrong bytes", name)
		}
		home := ring.Shard(name)
		if _, ok := srv.Shard(home).Info(name); !ok {
			t.Fatalf("%s missing from its new-ring shard %d", name, home)
		}
		for i := 0; i < srv.NumShards(); i++ {
			if i == home {
				continue
			}
			if _, ok := srv.Shard(i).Info(name); ok {
				t.Fatalf("stale copy of %s on shard %d (home %d)", name, i, home)
			}
		}
	}
	fsck, err := srv.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !fsck.Healthy() {
		t.Fatalf("shards unhealthy after reshard: %+v", fsck)
	}
}

// TestOfflineReshard is the base case: 4 -> 6 with no traffic, every
// name of the ring delta (and only those) moved, sources deleted,
// pending record gone.
func TestOfflineReshard(t *testing.T) {
	root, srv, ref := seedRoot(t, 4, 48)
	ctl, err := Attach(root, srv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := ctl.Status(); st.Present || st.Active {
		t.Fatalf("fresh root reports a reshard: %+v", st)
	}
	if err := ctl.Start(6); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Wait(); err != nil {
		t.Fatal(err)
	}
	st := ctl.Status()
	want := plannedMoves(srv.Vnodes(), 4, 6, ref)
	if st.Total != want || st.Done != want || st.Skipped != 0 {
		t.Fatalf("status %+v: want %d/%d moved, 0 skipped", st, want, want)
	}
	if want == 0 {
		t.Fatal("vacuous reshard: no names moved; enlarge the working set")
	}
	verifySettled(t, root, srv, ref, 6)

	// The counters tell the same story through /stats.
	if n := srv.Obs().Counter("reshard_names_moved_total").Value(); int(n) != want {
		t.Fatalf("reshard_names_moved_total = %d, want %d", n, want)
	}
	if n := srv.Obs().Counter("reshard_bytes_moved_total").Value(); n == 0 {
		t.Fatal("reshard_bytes_moved_total stayed 0")
	}
}

// TestStartValidation pins the refusals: shrinks, no-ops, and starting
// over a pending reshard are all errors, and resuming with nothing
// pending is the ErrNothingPending no-op.
func TestStartValidation(t *testing.T) {
	root, srv, _ := seedRoot(t, 4, 12)
	ctl, err := Attach(root, srv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Start(4); err == nil {
		t.Fatal("Start(4) on 4 shards succeeded; want refusal")
	}
	if err := ctl.Start(3); err == nil {
		t.Fatal("shrink to 3 shards succeeded; want refusal")
	}
	if err := ctl.Resume(); !errors.Is(err, ErrNothingPending) {
		t.Fatalf("Resume with nothing pending: %v, want ErrNothingPending", err)
	}

	// Abort a run at its first copy, leaving the pending record
	// behind: a second Start must refuse and point at resume.
	ctl.killHook = func(point, _ string) error {
		if point == "copied" {
			return errors.New("die")
		}
		return nil
	}
	if err := ctl.Start(6); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Wait(); !errors.Is(err, errKilled) {
		t.Fatalf("killed run returned %v, want errKilled", err)
	}
	if err := ctl.Start(8); err == nil {
		t.Fatal("Start over a pending reshard succeeded; want refusal")
	}
	st := ctl.Status()
	if !st.Present || st.From != 4 || st.To != 6 {
		t.Fatalf("status after killed run: %+v", st)
	}
}

// TestThrottlePaces sanity-checks the trickle option: a throttled
// reshard takes at least moves*Throttle.
func TestThrottlePaces(t *testing.T) {
	root, srv, ref := seedRoot(t, 2, 16)
	moves := plannedMoves(srv.Vnodes(), 2, 3, ref)
	if moves == 0 {
		t.Skip("no names move in this grow")
	}
	pace := 5 * time.Millisecond
	ctl, err := Attach(root, srv, Options{Throttle: pace})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := ctl.Start(3); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, min := time.Since(start), time.Duration(moves)*pace; got < min {
		t.Fatalf("throttled reshard of %d names took %s, want >= %s", moves, got, min)
	}
	verifySettled(t, root, srv, ref, 3)
}
