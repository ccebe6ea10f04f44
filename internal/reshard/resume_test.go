package reshard

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/faultfs"
	"repro/internal/hdfsraid"
	"repro/internal/serve"
)

// reopenResumed closes the crashed server and reopens the root the way
// a restarted process would: plain Open must refuse the half-resharded
// root, resume-mode Open plus Attach must restore dual-ring routing.
func reopenResumed(t *testing.T, root string, srv *serve.Server) (*serve.Server, *Controller) {
	t.Helper()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := serve.Open(root, serve.Config{}); !errors.Is(err, serve.ErrReshardPending) {
		t.Fatalf("plain Open of half-resharded root: %v, want ErrReshardPending", err)
	}
	srv2, err := serve.Open(root, serve.Config{ResumeReshard: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })
	ctl, err := Attach(root, srv2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !srv2.Resharding() {
		t.Fatal("Attach over a pending reshard did not restore dual-ring routing")
	}
	return srv2, ctl
}

// resumeSettled resumes a reopened controller and waits for it to
// finish cleanly.
func resumeSettled(t *testing.T, ctl *Controller) {
	t.Helper()
	if err := ctl.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Wait(); err != nil {
		t.Fatalf("resume: %v", err)
	}
}

// moving lists, sorted, the names of ref whose shard changes growing
// from -> to, failing the test if there are fewer than n.
func moving(t *testing.T, vnodes, from, to int, ref map[string][]byte, n int) []string {
	t.Helper()
	oldR, newR := serve.NewRing(from, vnodes), serve.NewRing(to, vnodes)
	var names []string
	for name := range ref {
		if oldR.Shard(name) != newR.Shard(name) {
			names = append(names, name)
		}
	}
	if len(names) < n {
		t.Fatalf("only %d names move %d -> %d, want %d; enlarge the working set", len(names), from, to, n)
	}
	sort.Strings(names)
	return names
}

// TestKillPoints crashes a reshard at each of its two kill points —
// right after a copy commits (source intact) and right after a source
// delete — and proves a resume from what the stores hold converges to
// the same settled end state. The kill hook returns an error exactly
// once, which aborts the run with no cleanup, the in-process stand-in
// for SIGKILL.
func TestKillPoints(t *testing.T) {
	for _, point := range []string{"copied", "deleted"} {
		point := point
		t.Run(point, func(t *testing.T) {
			root, srv, ref := seedRoot(t, 3, 24)
			moving(t, srv.Vnodes(), 3, 4, ref, 1)
			ctl, err := Attach(root, srv, Options{})
			if err != nil {
				t.Fatal(err)
			}
			killed := false
			ctl.killHook = func(p, name string) error {
				if p == point && !killed {
					killed = true
					return fmt.Errorf("kill at %s(%s)", p, name)
				}
				return nil
			}
			if err := ctl.Start(4); err != nil {
				t.Fatal(err)
			}
			if err := ctl.Wait(); !errors.Is(err, errKilled) {
				t.Fatalf("killed run returned %v, want errKilled", err)
			}
			if !killed {
				t.Fatalf("kill point %q never fired", point)
			}
			// While crashed mid-reshard, the pending record is the bit.
			if p, err := ReadPending(root); err != nil || p == nil {
				t.Fatalf("no pending record after kill at %s (err %v)", point, err)
			}

			_, ctl2 := reopenResumed(t, root, srv)
			resumeSettled(t, ctl2)
			verifySettled(t, root, ctl2.srv, ref, 4)

			// Double resume: a second Resume over the finished reshard is
			// a clean no-op.
			if err := ctl2.Resume(); !errors.Is(err, ErrNothingPending) {
				t.Fatalf("double resume: %v, want ErrNothingPending", err)
			}
		})
	}
}

// TestKillDuringResume crashes the reshard, then crashes the RESUME
// too, and proves the third run still converges: resumability is not a
// one-shot property.
func TestKillDuringResume(t *testing.T) {
	root, srv, ref := seedRoot(t, 3, 24)
	ctl, err := Attach(root, srv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	killed := false
	ctl.killHook = func(p, _ string) error {
		if p == "copied" && !killed {
			killed = true
			return errors.New("first kill")
		}
		return nil
	}
	if err := ctl.Start(4); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Wait(); !errors.Is(err, errKilled) {
		t.Fatalf("first run: %v, want errKilled", err)
	}

	srv2, ctl2 := reopenResumed(t, root, srv)
	killed = false
	ctl2.killHook = func(p, _ string) error {
		if p == "deleted" && !killed {
			killed = true
			return errors.New("second kill")
		}
		return nil
	}
	if err := ctl2.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := ctl2.Wait(); !errors.Is(err, errKilled) {
		t.Fatalf("killed resume: %v, want errKilled", err)
	}

	_, ctl3 := reopenResumed(t, root, srv2)
	resumeSettled(t, ctl3)
	verifySettled(t, root, ctl3.srv, ref, 4)
}

// TestDestinationWins: a name whose new-ring shard already holds other
// bytes than its old-ring shard — a client's delete and re-put landed
// mid-move — ends with the destination's bytes and no source copy.
func TestDestinationWins(t *testing.T) {
	root, srv, ref := seedRoot(t, 3, 24)
	name := moving(t, srv.Vnodes(), 3, 4, ref, 1)[0]
	// The state a crash right after Start leaves: the pending record
	// written and the shard set grown, nothing moved yet.
	if err := (&Pending{FromShards: 3, ToShards: 4, Vnodes: srv.Vnodes()}).write(root); err != nil {
		t.Fatal(err)
	}
	if err := srv.Grow(4); err != nil {
		t.Fatal(err)
	}
	fresh := []byte("the client's newer bytes")
	if err := srv.Shard(serve.NewRing(4, srv.Vnodes()).Shard(name)).PutReader(name, bytes.NewReader(fresh)); err != nil {
		t.Fatal(err)
	}
	ref[name] = fresh

	_, ctl := reopenResumed(t, root, srv)
	resumeSettled(t, ctl)
	verifySettled(t, root, ctl.srv, ref, 4)
}

// TestDeleteBetweenCopyAndSourceDelete: client deletes that land after
// a name's copy and before its source delete are honoured, with or
// without a crash in between. One name loses only its source copy
// in-run — the old-ring half of a DELETE whose new-ring half ran before
// the copy committed — and the mover must drop the copy it made;
// another is deleted through the front door after the run dies at its
// copy. After the resume both are on no shard.
func TestDeleteBetweenCopyAndSourceDelete(t *testing.T) {
	root, srv, ref := seedRoot(t, 3, 24)
	oldR := serve.NewRing(3, srv.Vnodes())
	ctl, err := Attach(root, srv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var halfDeleted, crashed string
	ctl.killHook = func(p, name string) error {
		switch {
		case p != "copied" || name == halfDeleted:
		case halfDeleted == "":
			halfDeleted = name
			if _, err := srv.Shard(oldR.Shard(name)).Delete(name); err != nil {
				t.Error(err)
			}
		case crashed == "":
			crashed = name
			return errors.New("kill after the second copy")
		}
		return nil
	}
	if err := ctl.Start(4); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Wait(); !errors.Is(err, errKilled) {
		t.Fatalf("run returned %v, want errKilled", err)
	}
	if halfDeleted == "" || crashed == "" {
		t.Fatal("fewer than two names were copied; enlarge the working set")
	}

	srv2, ctl2 := reopenResumed(t, root, srv)
	if _, err := srv2.Delete(crashed); err != nil {
		t.Fatalf("front-door delete of %s between its copy and source delete: %v", crashed, err)
	}
	resumeSettled(t, ctl2)
	for _, name := range []string{halfDeleted, crashed} {
		for i := 0; i < srv2.NumShards(); i++ {
			if _, ok := srv2.Shard(i).Info(name); ok {
				t.Fatalf("deleted %s resurrected on shard %d", name, i)
			}
		}
		if _, err := srv2.Get(name); !errors.Is(err, hdfsraid.ErrNotFound) {
			t.Fatalf("get of deleted %s: %v, want ErrNotFound", name, err)
		}
		delete(ref, name)
	}
	verifySettled(t, root, srv2, ref, 4)
}

// TestParkedNameSurvivesReopen: names whose source shard fails every
// read exhaust their retries and are parked — reported, still
// mid-move, the reshard left pending — and after a Close, Open, Attach
// and Resume with the faults gone (they were only ever in memory, like
// the parking itself) they move.
func TestParkedNameSurvivesReopen(t *testing.T) {
	shortRetries(t, 1, time.Millisecond)
	root, srv, ref := seedRoot(t, 3, 24)
	oldR := serve.NewRing(3, srv.Vnodes())
	bad := oldR.Shard(moving(t, srv.Vnodes(), 3, 4, ref, 1)[0])
	var stuck []string
	for _, name := range moving(t, srv.Vnodes(), 3, 4, ref, 1) {
		if oldR.Shard(name) == bad {
			stuck = append(stuck, name)
		}
	}
	fs := faultfs.New(faultfs.Config{Seed: 1, ReadErr: 1})
	srv.Shard(bad).SetBlockIO(fs)
	ctl, err := Attach(root, srv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Start(4); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Wait(); err == nil || !strings.Contains(err.Error(), "parked") {
		t.Fatalf("run over an unreadable source shard: %v, want a parked error", err)
	}
	st := ctl.Status()
	if !st.Present || st.Skipped != len(stuck) {
		t.Fatalf("status after parking: %+v, want %d parked", st, len(stuck))
	}
	for _, name := range stuck {
		if !ctl.inFlight(name) {
			t.Fatalf("parked %s is not in flight", name)
		}
	}

	_, ctl2 := reopenResumed(t, root, srv)
	if st := ctl2.Status(); !st.Present || st.From != 3 || st.To != 4 || st.Total-st.Done != len(stuck) || st.Skipped != 0 {
		t.Fatalf("status after reopen: %+v, want %d names left, none parked", st, len(stuck))
	}
	resumeSettled(t, ctl2)
	verifySettled(t, root, ctl2.srv, ref, 4)
}

// TestResumesParentJournal: a root the previous release left
// mid-reshard — its per-name journal at the same path, names on every
// rung of its ladder, one of them parked — needs no migration: the
// record's from/to/vnodes are read as the pending record, the entries
// are ignored, and the resume re-derives them from the shards.
func TestResumesParentJournal(t *testing.T) {
	root, srv, ref := seedRoot(t, 3, 24)
	names := moving(t, srv.Vnodes(), 3, 4, ref, 4)
	oldR, newR := serve.NewRing(3, srv.Vnodes()), serve.NewRing(4, srv.Vnodes())
	if err := srv.Grow(4); err != nil {
		t.Fatal(err)
	}
	// Lay the shards out as each rung means: done = moved, copied and
	// committed = on both shards, staged = untouched.
	states := []string{"done", "copied", "committed"}
	var entries []string
	for i, name := range names {
		src, dst := srv.Shard(oldR.Shard(name)), srv.Shard(newR.Shard(name))
		state, errField := "staged", ""
		if i < len(states) {
			state = states[i]
			if err := dst.PutReader(name, bytes.NewReader(ref[name])); err != nil {
				t.Fatal(err)
			}
		}
		if state == "done" {
			if _, err := src.Delete(name); err != nil {
				t.Fatal(err)
			}
		}
		if i == len(states) {
			errField = `,"err":"injected read error"`
		}
		entries = append(entries, fmt.Sprintf(`{"name":%q,"from":%d,"to":%d,"state":%q%s}`,
			name, oldR.Shard(name), newR.Shard(name), state, errField))
	}
	journal := fmt.Sprintf(`{"from_shards":3,"to_shards":4,"planned":true,"entries":[%s]}`, strings.Join(entries, ","))
	if err := os.WriteFile(filepath.Join(root, serve.ReshardJournalName), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ctl := reopenResumed(t, root, srv)
	if st := ctl.Status(); st.From != 3 || st.To != 4 || st.Total != len(names)-1 {
		t.Fatalf("status over the previous release's journal: %+v, want 3 -> 4 with %d names left", st, len(names)-1)
	}
	resumeSettled(t, ctl)
	verifySettled(t, root, ctl.srv, ref, 4)
}

// TestReshardMetadataIsConstant pins the reshard's durable cost at two
// working-set sizes: exactly 2·N + c fsyncs for N moved names — one
// PutReader record on the destination and one Delete record on the
// source each — where c (the pending record's write and removal, the
// grown shards' creation) does not depend on N: 21 fsyncs at N = 5 and
// 71 at N = 30 here, 2·N + 11. The per-name journal this replaced was
// rewritten whole three times per name: 52 and 252 at these sizes (100
// at N = 11, 492 at N = 60), 8·N + 12.
func TestReshardMetadataIsConstant(t *testing.T) {
	var cs []int64
	for _, files := range []int{24, 96} {
		root, srv, ref := seedRoot(t, 4, files)
		n := len(moving(t, srv.Vnodes(), 4, 6, ref, 1))
		ctl, err := Attach(root, srv, Options{})
		if err != nil {
			t.Fatal(err)
		}
		before := durable.Syncs()
		if err := ctl.Start(6); err != nil {
			t.Fatal(err)
		}
		if err := ctl.Wait(); err != nil {
			t.Fatal(err)
		}
		syncs := durable.Syncs() - before
		t.Logf("%d files, %d moved: %d fsyncs", files, n, syncs)
		cs = append(cs, syncs-2*int64(n))
		verifySettled(t, root, srv, ref, 6)
	}
	if cs[0] != cs[1] {
		t.Fatalf("fsyncs beyond 2 per moved name: %d at the small set, %d at the large one; want one constant", cs[0], cs[1])
	}
}
