package main

import "testing"

// TestSmoke runs the whole benchmark end to end on tiny working sets:
// the real hdfscli is built and served, every workload runs its phases,
// its probes and the traced ladder, every byte is verified, and the
// metric names that come out are exactly those BENCHMARK.json promises
// (env.run checks them).
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and serves the real hdfscli")
	}
	e, err := newEnv(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		res, err := e.run(w, runOpts{seed: 1, seconds: 2, trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct {
			t.Errorf("%s: output was not correct: %v", w.name, res.problems)
		}
		if attempted, failed := res.totals(); attempted == 0 || failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.name, attempted, failed)
		}
		for name, v := range res.e2e {
			if v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w.name, name, v)
			}
		}
	}
}
