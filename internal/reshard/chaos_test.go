package reshard

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/loadgen"
)

// shortRetries lowers the per-name retry budget and backoff for one
// test, restoring the production values after it.
func shortRetries(t *testing.T, n int, base time.Duration) {
	t.Helper()
	oldN, oldBase := retries, backoff
	retries, backoff = n, base
	t.Cleanup(func() { retries, backoff = oldN, oldBase })
}

// TestReshardChaos is the acceptance gauntlet: a 4 -> 6 reshard under
// concurrent loadgen traffic WITH fault injection on every source
// shard (transient read errors, silent bit flips, torn writes) AND a
// mid-reshard kill. The reshard must resume and complete, the load
// must see zero integrity errors, and the fleet must end fully
// healthy: scrub finds nothing unrepairable, a second scrub converges,
// fsck is clean, and every name reads back byte-exact over HTTP.
func TestReshardChaos(t *testing.T) {
	root, srv, _ := seedRoot(t, 4, 0)
	// Injectors go on the four SOURCE shards only, and before any
	// traffic: SetBlockIO is not safe to swap mid-flight, and the
	// grown shards don't exist yet.
	injectors := make([]*faultfs.FS, 4)
	for i := range injectors {
		injectors[i] = faultfs.New(faultfs.Config{
			Seed:         900 + int64(i)*100,
			ReadErr:      0.01,
			CorruptWrite: 0.01,
			TornWrite:    0.003,
		})
		injectors[i].SetEnabled(false) // preload runs fault-free
		srv.Shard(i).SetBlockIO(injectors[i])
	}
	shortRetries(t, 8, 2*time.Millisecond)
	ctl, err := Attach(root, srv, Options{Throttle: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := loadgen.Config{
		BaseURL:       ts.URL,
		Clients:       8,
		Duration:      2 * time.Second,
		Files:         36,
		FileBytes:     5 * testBlock,
		WriteFraction: 0.05,
		WriteBytes:    2 * testBlock,
		RangeFraction: 0.2,
		Seed:          11,
	}
	if err := loadgen.Preload(cfg); err != nil {
		t.Fatal(err)
	}
	for _, fs := range injectors {
		fs.SetEnabled(true)
	}
	resCh := make(chan loadgen.Result, 1)
	go func() {
		res, _ := loadgen.Run(cfg)
		resCh <- res
	}()
	time.Sleep(150 * time.Millisecond)

	// First run dies mid-reshard (once, right after its second copy),
	// as if the process was killed while moving under fire.
	killed := false
	fired := 0
	ctl.killHook = func(p, _ string) error {
		if p == "copied" {
			if fired++; fired == 2 && !killed {
				killed = true
				return errors.New("chaos kill")
			}
		}
		return nil
	}
	if err := ctl.Start(6); err != nil {
		t.Fatal(err)
	}
	err = ctl.Wait()
	if killed && !errors.Is(err, errKilled) {
		t.Fatalf("killed chaos run returned %v", err)
	}
	ctl.killHook = nil

	// Resume with faults still raining; parked names are legal here —
	// keep resuming. If the fault rate still wins after a few rounds,
	// the last resume runs fault-free: transient faults must never
	// park a name forever.
	for round := 0; ctl.Status().Present && round < 4; round++ {
		if round == 3 {
			for _, fs := range injectors {
				fs.SetEnabled(false)
			}
		}
		if err := ctl.Resume(); err != nil {
			t.Fatal(err)
		}
		if err := ctl.Wait(); err != nil {
			t.Logf("resume round %d: %v", round, err)
		}
	}
	if st := ctl.Status(); st.Present {
		t.Fatalf("reshard still pending after resume rounds: %+v", st)
	}
	res := <-resCh
	t.Logf("load during chaos reshard: %s", res.Summary())
	if res.IntegrityErrors != 0 {
		t.Fatalf("%d integrity errors — the reshard lied under faults", res.IntegrityErrors)
	}

	// Faults off; the fleet must heal to spotless.
	var total int64
	for _, fs := range injectors {
		fs.SetEnabled(false)
		total += fs.Stats().Total()
	}
	if total == 0 {
		t.Fatal("vacuous chaos run: no faults injected")
	}
	for i := 0; i < srv.NumShards(); i++ {
		if _, err := srv.Shard(i).Recover(); err != nil {
			t.Fatalf("recover shard %d: %v", i, err)
		}
	}
	rep, err := srv.Scrub(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unrepairable > 0 {
		t.Fatalf("%d blocks unrepairable after faults stopped: %+v", rep.Unrepairable, rep)
	}
	again, err := srv.Scrub(0)
	if err != nil {
		t.Fatal(err)
	}
	if again.CorruptFound+again.MissingFound > 0 {
		t.Fatalf("scrub did not converge: %+v", again)
	}
	fsck, err := srv.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !fsck.Healthy() {
		t.Fatalf("unhealthy after chaos reshard: %+v", fsck)
	}
	for i := 0; i < cfg.Files; i++ {
		name := workloadName(i)
		resp, err := http.Get(ts.URL + "/files/" + name)
		if err != nil {
			t.Fatal(err)
		}
		data := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("final read %s: status %d", name, resp.StatusCode)
		}
		if !bytes.Equal(data, loadgen.Content(name, cfg.FileBytes)) {
			t.Fatalf("final read %s: wrong bytes", name)
		}
	}
	if st := ctl.Status(); st.Done == 0 {
		t.Fatalf("vacuous reshard: nothing moved (%+v)", st)
	}
	t.Logf("chaos reshard done: %d faults injected, status %+v", total, ctl.Status())
}
