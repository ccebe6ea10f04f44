package hdfsraid

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/tune"
)

// Per-store calibrated parallelism. A tune.json beside the manifest
// (written by `hdfscli tune`, see internal/tune) sizes the encode,
// decode, repair and move worker pools per code instead of handing
// every pipeline GOMAXPROCS. Stores without one — or with a stale one,
// probed under a different kernel tier or machine size — keep the
// GOMAXPROCS defaults.

// tunedParams is the store's installed calibration; nil-safe atomics
// because Get/Put hot paths read it lock-free.
type tunedParams struct {
	p atomic.Pointer[tune.Params]
}

// loadTune reads tune.json at open; missing, unparsable or stale files
// leave the defaults in place (a store must never fail to open over a
// calibration cache).
func (s *Store) loadTune() {
	p, err := tune.Load(tune.PathIn(s.root))
	if err != nil || p == nil || p.Stale() {
		return
	}
	s.installTune(p)
}

// SetTune installs freshly probed calibration parameters (the
// `hdfscli tune` path) and republishes the tune_* gauges.
func (s *Store) SetTune(p *tune.Params) { s.installTune(p) }

// Tune returns the installed calibration, nil when running defaults.
func (s *Store) Tune() *tune.Params { return s.tuned.p.Load() }

func (s *Store) installTune(p *tune.Params) {
	s.tuned.p.Store(p)
	if p == nil {
		return
	}
	reg := s.Obs()
	for code, ct := range p.Codes {
		reg.Gauge("tune_encode_workers_" + code).Set(float64(ct.EncodeWorkers))
		reg.Gauge("tune_decode_workers_" + code).Set(float64(ct.DecodeWorkers))
	}
	if p.MoveWorkers > 0 {
		reg.Gauge("tune_move_workers").Set(float64(p.MoveWorkers))
	}
	if p.DeviceWriteMBps > 0 {
		reg.Gauge("tune_device_write_mbps").Set(p.DeviceWriteMBps)
	}
}

// encodeWorkersFor returns the encode worker-pool size for a code:
// calibrated when known, GOMAXPROCS otherwise.
func (s *Store) encodeWorkersFor(code string) int {
	if w := s.Tune().EncodeWorkers(code); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// decodeWorkersFor is encodeWorkersFor's decode twin, sizing degraded
// stripe reconstruction fan-out.
func (s *Store) decodeWorkersFor(code string) int {
	if w := s.Tune().DecodeWorkers(code); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// repairWorkers sizes Repair's per-file fan-out. Repair decodes under
// whichever codes the damaged files use, so take the widest calibrated
// decode pool; uncalibrated stores keep GOMAXPROCS.
func (s *Store) repairWorkers() int {
	p := s.Tune()
	if p == nil {
		return runtime.GOMAXPROCS(0)
	}
	w := 0
	for _, ct := range p.Codes {
		if ct.DecodeWorkers > w {
			w = ct.DecodeWorkers
		}
	}
	if w == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// parallel runs fn(0) … fn(n-1) on up to workers goroutines, handing
// indices out in order; one worker (or one index) runs inline. After
// the first error nothing more is dispatched, in-flight calls drain,
// and that error is returned.
func parallel(n, workers int, fn func(i int) error) error {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next  atomic.Int64
		first atomic.Pointer[error]
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					first.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	wg.Wait()
	if err := first.Load(); err != nil {
		return *err
	}
	return nil
}

// MoveWorkers returns the calibrated tier-move fan-out, or 0 when
// uncalibrated (callers keep their own default).
func (s *Store) MoveWorkers() int {
	if p := s.Tune(); p != nil {
		return p.MoveWorkers
	}
	return 0
}
