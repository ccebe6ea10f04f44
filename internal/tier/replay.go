package tier

import (
	"repro/internal/sim"
	"repro/internal/workload"
)

// ReplayStats summarizes one trace replay under a tiering policy.
type ReplayStats struct {
	Accesses    int
	Rebalances  int
	Promotions  int
	Demotions   int
	BlocksMoved int // transcode traffic, block units
	Deferred    int // moves pushed to later scans by the daemon's byte budget
	Moves       []MoveResult
}

// Replay drives the daemon from a workload trace on a discrete-event
// engine: every access touches the daemon's tracker (see touch) and
// the optional onAccess callback (where callers meter read costs), and
// the daemon's Tick runs every cfg.Interval seconds of virtual time, so
// its token-bucket byte budget, hottest-first ordering and deferrals
// are all exercised against the trace. The engine's clock is the
// tracker's clock, so identical traces and seeds replay identically.
// The daemon's OnMove hook (set it before calling) lets the caller
// charge transcode traffic to a simulated network, modeling rebalance
// contending with foreground reads on the shared LAN.
func Replay(eng *sim.Engine, trace []workload.Access, d *Daemon,
	onAccess func(a workload.Access, now float64) error) (ReplayStats, error) {
	var stats ReplayStats
	if len(trace) == 0 {
		return stats, nil
	}
	if err := d.checkInterval(); err != nil {
		return stats, err
	}
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, a := range trace {
		a := a
		eng.At(a.Time, func() {
			if firstErr != nil {
				return
			}
			stats.Accesses++
			d.touch(a, eng.Now())
			if onAccess != nil {
				if err := onAccess(a, eng.Now()); err != nil {
					fail(err)
				}
			}
		})
	}
	end := trace[len(trace)-1].Time
	for t := d.cfg.Interval; t <= end; t += d.cfg.Interval {
		eng.At(t, func() {
			if firstErr != nil {
				return
			}
			stats.Rebalances++
			moves, err := d.Tick(eng.Now())
			if err != nil {
				fail(err)
			}
			for _, mv := range moves {
				if mv.Promote {
					stats.Promotions++
				} else {
					stats.Demotions++
				}
				stats.BlocksMoved += mv.BlocksMoved
			}
			stats.Moves = append(stats.Moves, moves...)
		})
	}
	eng.Run()
	stats.Deferred = d.Stats().Deferred
	return stats, firstErr
}

// touch records one trace access at time now on the extent holding its
// block. An access without an offset (Block < 0), or one past what the
// target maps, could have hit any extent, so it touches every extent of
// its file.
func (d *Daemon) touch(a workload.Access, now float64) {
	if a.Block >= 0 {
		if ext := d.target.ExtentOf(a.Name, a.Block); ext >= 0 {
			d.tracker.TouchExtent(a.Name, ext, now)
			return
		}
	}
	for ext, n := 0, d.target.Extents(a.Name); ext < n; ext++ {
		d.tracker.TouchExtent(a.Name, ext, now)
	}
}
