package tier

import (
	"testing"

	"repro/internal/obs"
)

// TestDaemonObsMetrics reruns the hottest-first budget scenario with a
// registry attached and asserts the daemon mirrors its stats onto it:
// tick/move/deferral counters match DaemonStats, every scan lands in
// the latency histogram, and the bucket-tokens gauge publishes the
// bucket balance.
func TestDaemonObsMetrics(t *testing.T) {
	ft := newFakeTarget(10, map[string]string{
		"cool": "rs-14-10", "warm": "rs-14-10", "blazing": "rs-14-10",
	})
	tr := NewTracker(0)
	tr.TouchExtentN("cool", 0, 10, 0)
	tr.TouchExtentN("warm", 0, 20, 0)
	tr.TouchExtentN("blazing", 0, 30, 0)
	d, err := NewDaemon(ft, testPolicy(), tr, DaemonConfig{Interval: 10, BytesPerSec: 1, Burst: 10, BlockBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.Obs = obs.NewRegistry()
	for _, now := range []float64{10, 20, 30} {
		if _, err := d.Tick(now); err != nil {
			t.Fatal(err)
		}
	}

	snap := d.Obs.Snapshot()
	c := snap.Counters
	st := d.Stats()
	wantCounters := map[string]int64{
		metricDaemonTicks:      int64(st.Ticks),
		metricDaemonMoves:      int64(st.Moves),
		metricDaemonPromotions: int64(st.Promotions),
		metricDaemonDemotions:  int64(st.Demotions),
		metricDaemonDeferred:   int64(st.Deferred),
		metricDaemonErrors:     int64(st.Errors),
		metricDaemonBytesMoved: int64(st.BytesMoved),
	}
	for name, want := range wantCounters {
		if c[name] != want {
			t.Errorf("%s = %d, want %d (stats %+v)", name, c[name], want, st)
		}
	}
	// Deferrals accumulate scan over scan: 2 on the first tick, 1 on
	// the second, 0 on the third.
	if st.Moves != 3 || st.Deferred != 3 {
		t.Fatalf("scenario drifted: stats = %+v, want 3 moves / 3 deferred", st)
	}
	if got := snap.Histograms[metricDaemonTickNs].Count; got != 3 {
		t.Errorf("tick latency histogram count = %d, want 3", got)
	}
	if _, ok := snap.Gauges[metricDaemonBucketTokens]; !ok {
		t.Error("bucket-tokens gauge missing from a rate-limited daemon")
	}
}
