package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

const (
	setupRepeats = 3
	setupSeconds = 2 * time.Second
	warmup       = time.Second
	lightDiv     = 5 // what a light (smoke) run divides its fixed counts by
	// The measured seconds split 1:3 between the closed-loop saturation
	// phase and the open-loop phase.
	satShare = 0.25
	// lossNodes: node_loss and the repair probe cycle over the nodes
	// every code in play spans (pentagon has 5).
	lossNodes = 5
	// probePuts sequential PUTs give a read-only workload its PUT
	// latency; probeRepairs kill+repair cycles give a workload without
	// node loss its repair throughput.
	probePuts      = 100
	probeRepairs   = 3
	readBackPasses = 3
)

// runServing measures a workload served by a child `hdfscli serve`:
// set-up, warm-up, closed-loop saturation (phase A), open-loop arrivals
// (phase B, with node-loss events when the workload has them), the
// probes, a byte-exact read-back of every live name, and after the
// child has drained an in-process fsck and — when traced — the ladder.
func runServing(e *env, w *workload, dir string, opts runOpts) (*result, error) {
	res := newResult(w.name)
	data := newDataset(w)

	up, err := setUp(e, w, dir, data, opts)
	if err != nil {
		return nil, err
	}
	root, c, setup := up.root, up.child, up.last
	defer c.stop()
	res.e2e["setup_s"] = median(up.seconds)
	res.samples["setup_s"] = len(up.seconds)

	live := newLiveSet(w)
	t := newTarget(c.base, e.nproc, data, live)
	defer t.close()
	streams := 1 + e.nproc
	var mixers []*mixer
	for s := 1; s < streams; s++ {
		mixers = append(mixers, newMixer(w, opts.seed, s, streams, 0))
	}
	satDur := time.Duration(opts.seconds * satShare * float64(time.Second))
	openDur := time.Duration(opts.seconds*float64(time.Second)) - satDur
	sched := buildSchedule(w, opts.seed, streams, openDur)

	warm := runClosed(t, mixers, warmup/time.Duration(w.div()))
	warm.name = "warmup"
	res.phase(&warm)

	// repairMBps collects one sample per repair, wherever it happens.
	var repairMBps []float64
	repair := func(v int) error {
		rep, took, err := c.repairNode(v)
		if err != nil {
			return err
		}
		repairMBps = append(repairMBps, float64(rep.BlocksRestored)*float64(w.blockSize)/mib/took.Seconds())
		return nil
	}

	// Phase A. With node loss it runs right after a node is erased, so
	// it is the saturated throughput of a degraded, self-healing store.
	if w.lossCycles > 0 {
		if err := killNode(e.hdfscli, root, w.shards, w.lossCycles%lossNodes); err != nil {
			return nil, err
		}
	}
	sat := runClosed(t, mixers, satDur)
	sat.name = "A-closed"
	res.phase(&sat)
	if w.lossCycles > 0 {
		if err := repair(w.lossCycles % lossNodes); err != nil {
			return nil, err
		}
	}

	// Phase B, with the node-loss events on their own fixed schedule:
	// each cycle erases a node a tenth of the way in, lets reads run
	// degraded for half the cycle, then repairs it.
	var events sync.WaitGroup
	var eventErr atomic.Value
	if w.lossCycles > 0 {
		events.Add(1)
		go func() {
			defer events.Done()
			start := time.Now()
			period := openDur / time.Duration(w.lossCycles)
			for cyc := 0; cyc < w.lossCycles; cyc++ {
				v := cyc % lossNodes
				time.Sleep(time.Until(start.Add(time.Duration(cyc)*period + period/10)))
				if err := killNode(e.hdfscli, root, w.shards, v); err != nil {
					eventErr.Store(err)
					return
				}
				time.Sleep(time.Until(start.Add(time.Duration(cyc)*period + period*6/10)))
				if err := repair(v); err != nil {
					eventErr.Store(err)
					return
				}
			}
		}()
	}
	open := runOpen(t, sched, e.nproc)
	open.name = "B-open"
	events.Wait()
	if err, _ := eventErr.Load().(error); err != nil {
		return nil, err
	}
	res.phase(&open)
	for _, k := range []opKind{opGet, opRange} {
		res.e2e[kindNames[k]+"_p50_ms"] = quantile(open.lat[k], 0.50)
		res.samples[kindNames[k]+"_p50_ms"] = len(open.lat[k])
	}
	// A generator that oversleeps its own schedule was starved of CPU:
	// such a run says nothing about the server.
	if p99 := quantile(open.oversleepMs, 0.99); p99 > 5 {
		res.problems = append(res.problems, fmt.Sprintf("INVALID, not slow: the generator overslept its schedule (p99 %.2f ms > 5 ms)", p99))
	}

	// Probes, traced runs only: what the workload's own traffic does not
	// exercise, so that every workload has every per-layer metric. Each
	// starts from a flushed disk, so that it times its own writes and not
	// the previous phase's writeback.
	puts := open.lat[opPut]
	var snap obs.Snapshot
	if opts.trace {
		if w.mix[opPut] == 0 {
			syscall.Sync()
			probe := writeProbe(t, w)
			res.phase(&probe)
			puts = probe.lat[opPut]
		}
		if w.lossCycles == 0 {
			for v := 0; v < probeRepairs; v++ {
				if err := killNode(e.hdfscli, root, w.shards, v); err != nil {
					return nil, err
				}
				syscall.Sync()
				if err := repair(v); err != nil {
					return nil, err
				}
			}
		}
		if snap, err = c.stats(); err != nil {
			return nil, err
		}
	}

	// Read every live name back and compare every byte, several times
	// over on a flushed disk; the passes' median is the bulk read
	// throughput.
	syscall.Sync()
	var liveBytes int64
	for _, n := range live.sizes {
		liveBytes += int64(n)
	}
	var backMBps []float64
	for pass := 0; pass < readBackPasses; pass++ {
		back := readBack(t, live, e.nproc)
		res.phase(&back)
		if back.failed > 0 {
			res.fail("read-back: %d of %d live names did not read back", back.failed, back.attempted)
		}
		backMBps = append(backMBps, float64(liveBytes)/mib/back.elapsed.Seconds())
	}

	usage, err := c.stop()
	if err != nil {
		return nil, err
	}

	// The child has drained: open the same root in-process.
	stored, err := bytesUnder(root)
	if err != nil {
		return nil, err
	}
	res.e2e["storage_overhead"] = float64(stored) / float64(liveBytes)
	if opts.trace {
		served, _ := res.totals()
		res.layers = map[string]float64{
			"gen.late_p99_ms":         quantile(open.lateMs, 0.99),
			"gen.backlog_max":         float64(open.backlogMax),
			"gen.get_p99_ms":          quantile(open.lat[opGet], 0.99),
			"gen.range_p99_ms":        quantile(open.lat[opRange], 0.99),
			"gen.put_p50_ms":          quantile(puts, 0.50),
			"gen.put_p99_ms":          quantile(puts, 0.99),
			"gen.sat_ops_s":           float64(sat.ok()) / sat.elapsed.Seconds(),
			"hdfsraid.ingest_mbps":    median(up.ingestMBps),
			"hdfsraid.transcode_mbps": median(up.transcodeMBps),
			"hdfsraid.repair_mbps":    median(repairMBps),
			"gen.bulk_read_mbps":      median(backMBps),
			"proc.server_cpu_ms_op":   float64(usage.cpu) / float64(time.Millisecond) / float64(served),
			"proc.server_rss_peak_mb": usage.maxRSSMiB,
			"hdfsraid.manifest_bytes": float64(setup.manifestBytes),
		}
		statsLayers(snap, res.layers)
	}
	srv, err := serve.Open(root, serve.Config{})
	if err != nil {
		return nil, err
	}
	err = inspect(e, w, srv, data, dir, opts, res)
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	return res, err
}

// inspect ends a run on the in-process server: the traced ladder when
// asked for, then an fsck that must find every block in place.
func inspect(e *env, w *workload, srv *serve.Server, data *dataset, dir string, opts runOpts, res *result) error {
	if opts.trace {
		if err := runLadder(e, w, srv, data, dir, opts, res); err != nil {
			return err
		}
	}
	rep, err := srv.Fsck()
	if err != nil {
		return err
	}
	if !rep.Healthy() {
		res.fail("fsck: %d blocks missing, %d corrupt", rep.Missing, rep.Corrupt)
	}
	return nil
}

// statsLayers fills the per-layer metrics that come from the server's
// own always-on counters, so the client–server gap is one subtraction.
func statsLayers(snap obs.Snapshot, layers map[string]float64) {
	layers["hdfsraid.srv_get_p50_us"] = float64(snap.Histograms["store_get_intact_ns"].Quantile(0.5)) / 1e3
	layers["hdfsraid.srv_put_p50_us"] = float64(snap.Histograms["store_put_ns"].Quantile(0.5)) / 1e3
	layers["hdfsraid.degraded_reads"] = float64(snap.Counters["store_reads_degraded_total"])
	layers["hdfsraid.read_heals"] = float64(snap.Counters["read_heal_total"])
}

// writeProbe times probePuts sequential PUTs of file-sized private
// names on one connection, deleting each right after.
func writeProbe(t *target, w *workload) phaseResult {
	res := phaseResult{name: "put-probe"}
	m := newMixer(w, 0, 0, 1, 0)
	m.prefix = "probe"
	var buf []byte
	start := time.Now()
	for i := 0; i < probePuts/w.div(); i++ {
		for _, kind := range []opKind{opPut, opDelete} {
			o := m.nextOf(kind, 0)
			sent := time.Now()
			st := t.do(&o, &buf)
			res.record(&o, st, time.Since(sent), false)
		}
	}
	res.elapsed = time.Since(start)
	return res
}

// readBack GETs every live name once from conns clients and verifies
// every byte.
func readBack(t *target, live *liveSet, conns int) phaseResult {
	names := live.names()
	// Names the run created are verified against their generated
	// content too; generate it before the clock starts.
	for _, name := range names {
		if _, ok := t.data.pre[name]; !ok {
			t.data.pre[name] = t.data.content(name, live.sizes[name])
		}
	}
	var next atomic.Int64
	parts := make([]phaseResult, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(p *phaseResult) {
			defer wg.Done()
			var buf []byte
			for {
				i := int(next.Add(1)) - 1
				if i >= len(names) {
					return
				}
				o := op{kind: opGet, name: names[i], n: len(t.data.pre[names[i]])}
				sent := time.Now()
				st := t.do(&o, &buf)
				p.record(&o, st, time.Since(sent), false)
			}
		}(&parts[c])
	}
	wg.Wait()
	res := phaseResult{name: "read-back", elapsed: time.Since(start)}
	for i := range parts {
		res.merge(&parts[i])
	}
	return res
}
