package tier

import (
	"fmt"

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

// Replay drives the manager from a workload trace on a discrete-event
// engine: every access touches the tracker — attributed to the extent
// holding the access's block — and the optional onAccess callback
// (where callers meter read costs), and the policy runs every
// rebalanceEvery seconds of virtual time. The engine's clock is the
// tracker's clock, so identical traces and seeds replay identically.
func Replay(eng *sim.Engine, trace []workload.Access, m *Manager,
	rebalanceEvery float64, onAccess func(a workload.Access, now float64) error) (ReplayStats, error) {
	var stats ReplayStats
	if len(trace) == 0 {
		return stats, nil
	}
	if rebalanceEvery <= 0 {
		return stats, fmt.Errorf("tier: rebalance interval must be positive, got %v", rebalanceEvery)
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
			m.OnReadBlock(a.Name, a.Block, eng.Now())
			if onAccess != nil {
				if err := onAccess(a, eng.Now()); err != nil {
					fail(err)
				}
			}
		})
	}
	end := trace[len(trace)-1].Time
	for t := rebalanceEvery; t <= end; t += rebalanceEvery {
		eng.At(t, func() {
			if firstErr != nil {
				return
			}
			stats.Rebalances++
			moves, err := m.Rebalance(eng.Now())
			if err != nil {
				fail(err)
			}
			stats.record(moves)
		})
	}
	eng.Run()
	return stats, firstErr
}

func (s *ReplayStats) record(moves []MoveResult) {
	for _, mv := range moves {
		if mv.Promote {
			s.Promotions++
		} else {
			s.Demotions++
		}
		s.BlocksMoved += mv.BlocksMoved
		s.Moves = append(s.Moves, mv)
	}
}

// ReplayDaemon is Replay with the background rebalance daemon in the
// loop instead of caller-driven Rebalance: the daemon's Tick runs on
// the engine's virtual clock every cfg.Interval seconds, so its
// token-bucket byte budget, hottest-first ordering and deferrals are
// all exercised against the trace. The daemon's OnMove hook (set it
// before calling) lets the caller charge transcode traffic to a
// simulated network, modeling rebalance contending with foreground
// reads on the shared LAN.
func ReplayDaemon(eng *sim.Engine, trace []workload.Access, d *Daemon,
	onAccess func(a workload.Access, now float64) error) (ReplayStats, error) {
	var stats ReplayStats
	if len(trace) == 0 {
		return stats, nil
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
			d.m.OnReadBlock(a.Name, a.Block, eng.Now())
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
			stats.record(moves)
		})
	}
	eng.Run()
	stats.Deferred = d.Stats().Deferred
	return stats, firstErr
}
