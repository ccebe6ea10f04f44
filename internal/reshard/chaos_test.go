package reshard

import (
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/faultfs"
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
// the chaos client's verified load WITH fault injection on every
// source shard (transient read errors, silent bit flips, torn writes)
// AND a mid-reshard kill. The reshard must resume and complete, no
// response may lie, every op kind of the load must run, and the fleet
// must pass chaos.Settle once the faults stop.
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
	c, err := chaos.NewClient(ts.URL, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range injectors {
		fs.SetEnabled(true)
	}
	underLoad(t, c, func() {
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
		if err := ctl.Wait(); killed && !errors.Is(err, errKilled) {
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
	})

	// Faults off; the fleet must heal to spotless.
	var total int64
	for _, fs := range injectors {
		fs.SetEnabled(false)
		total += fs.Stats().Total()
	}
	if total == 0 {
		t.Fatal("vacuous chaos run: no faults injected")
	}
	if err := chaos.Settle(srv, c); err != nil {
		t.Fatal(err)
	}
	if st := ctl.Status(); st.Done == 0 {
		t.Fatalf("vacuous reshard: nothing moved (%+v)", st)
	}
	t.Logf("chaos reshard done: %d faults injected, status %+v", total, ctl.Status())
}
