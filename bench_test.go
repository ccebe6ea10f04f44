package hadoopcodes

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation, plus encode/decode/repair micro-benchmarks
// (the paper's future-work "encoding duration" metric) and ablation
// benches for the design choices DESIGN.md calls out. Figure-level
// benchmarks report the reproduced headline metric through
// b.ReportMetric so `go test -bench` output doubles as an experiment
// record.

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/block"
	"repro/internal/code/heptlocal"
	"repro/internal/code/polygon"
	"repro/internal/code/raidm"
	"repro/internal/code/rs"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/hdfsraid"
	"repro/internal/locality"
	"repro/internal/mapred"
	"repro/internal/reliability"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/workload"
)

// --- Table 1 ---

// BenchmarkTable1MTTDL regenerates Table 1 (storage overhead, code
// length, MTTDL) and reports the 3-rep system MTTDL in years.
func BenchmarkTable1MTTDL(b *testing.B) {
	var rows []reliability.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = reliability.Table1(reliability.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].MTTDLYears, "3rep-years")
	b.ReportMetric(rows[1].MTTDLYears, "pentagon-years")
}

// --- Figure 3 ---

func benchLocality(b *testing.B, slots int, schedulers []sched.Scheduler) []locality.Point {
	b.Helper()
	cfg := locality.DefaultConfig(slots)
	cfg.Trials = 5
	cfg.Schedulers = schedulers
	var pts []locality.Point
	var err error
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		pts, err = locality.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	return pts
}

// BenchmarkFig3LocalityMu2 reproduces the first panel of Figure 3 and
// reports full-load delay-scheduler locality (percent).
func BenchmarkFig3LocalityMu2(b *testing.B) {
	pts := benchLocality(b, 2, []sched.Scheduler{sched.Delay{DelayRounds: 1}, sched.MaxMatch{}})
	if p, ok := locality.Lookup(pts, "pentagon", "delay", 1.0); ok {
		b.ReportMetric(p.Locality*100, "pent-DS-%")
	}
	if p, ok := locality.Lookup(pts, "heptagon", "delay", 1.0); ok {
		b.ReportMetric(p.Locality*100, "hept-DS-%")
	}
}

// BenchmarkFig3LocalityMu4 reproduces the second panel.
func BenchmarkFig3LocalityMu4(b *testing.B) {
	pts := benchLocality(b, 4, []sched.Scheduler{sched.Delay{DelayRounds: 1}, sched.MaxMatch{}})
	if p, ok := locality.Lookup(pts, "pentagon", "delay", 1.0); ok {
		b.ReportMetric(p.Locality*100, "pent-DS-%")
	}
}

// BenchmarkFig3LocalityMu8 reproduces the third panel.
func BenchmarkFig3LocalityMu8(b *testing.B) {
	pts := benchLocality(b, 8, []sched.Scheduler{sched.Delay{DelayRounds: 1}, sched.MaxMatch{}})
	if p, ok := locality.Lookup(pts, "pentagon", "delay", 1.0); ok {
		b.ReportMetric(p.Locality*100, "pent-DS-%")
	}
}

// BenchmarkFig3Peeling reproduces the fourth panel (mu = 4 with the
// modified peeling algorithm).
func BenchmarkFig3Peeling(b *testing.B) {
	pts := benchLocality(b, 4, []sched.Scheduler{
		sched.Delay{DelayRounds: 1}, sched.MaxMatch{}, sched.Peeling{},
	})
	if p, ok := locality.Lookup(pts, "pentagon", "peeling", 1.0); ok {
		b.ReportMetric(p.Locality*100, "pent-peel-%")
	}
}

// --- Figures 4 and 5 ---

func benchMR(b *testing.B, cfg mapred.ExperimentConfig) []mapred.ResultPoint {
	b.Helper()
	cfg.Trials = 2
	var pts []mapred.ResultPoint
	var err error
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		pts, err = mapred.RunExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	return pts
}

// BenchmarkFig4Setup1 reproduces Figure 4: Terasort on 25 nodes with 2
// map slots; reports full-load job time and network traffic for the
// pentagon.
func BenchmarkFig4Setup1(b *testing.B) {
	pts := benchMR(b, mapred.Figure4Config())
	if p, ok := mapred.LookupResult(pts, "pentagon", 1.0); ok {
		b.ReportMetric(p.JobSeconds, "pent-job-s")
		b.ReportMetric(p.TrafficGB, "pent-GB")
	}
	if p, ok := mapred.LookupResult(pts, "2-rep", 1.0); ok {
		b.ReportMetric(p.JobSeconds, "2rep-job-s")
	}
}

// BenchmarkFig5Setup2 reproduces Figure 5: Terasort on 9 nodes with 4
// map slots.
func BenchmarkFig5Setup2(b *testing.B) {
	pts := benchMR(b, mapred.Figure5Config())
	if p, ok := mapred.LookupResult(pts, "pentagon", 0.75); ok {
		b.ReportMetric(p.Locality*100, "pent-loc-%")
	}
	if p, ok := mapred.LookupResult(pts, "2-rep", 0.75); ok {
		b.ReportMetric(p.Locality*100, "2rep-loc-%")
	}
}

// BenchmarkDegradedMR is the future-work experiment: Terasort on
// set-up 1 with two failed nodes.
func BenchmarkDegradedMR(b *testing.B) {
	cfg := mapred.Figure4Config()
	cfg.Failures = 2
	cfg.Codes = []string{"pentagon"}
	cfg.Loads = []float64{0.75}
	pts := benchMR(b, cfg)
	if p, ok := mapred.LookupResult(pts, "pentagon", 0.75); ok {
		b.ReportMetric(p.DegradedMaps, "degraded-maps")
	}
}

// --- Section 2.1 / 3.1: repair bandwidth ---

// BenchmarkRepairBandwidth plans (and costs) the paper's repair
// scenarios; the metric is blocks moved.
func BenchmarkRepairBandwidth(b *testing.B) {
	pent := polygon.New(5)
	var bw int
	for i := 0; i < b.N; i++ {
		plan, err := pent.PlanRepair([]int{0, 1})
		if err != nil {
			b.Fatal(err)
		}
		bw = plan.Bandwidth()
	}
	b.ReportMetric(float64(bw), "pent-2node-blocks")
}

// --- Encoding duration (future-work metric E7) ---

func benchEncode(b *testing.B, c core.Code) {
	rng := rand.New(rand.NewSource(1))
	const blockSize = 1 << 20
	data := make([][]byte, c.DataSymbols())
	for i := range data {
		data[i] = make([]byte, blockSize)
		rng.Read(data[i])
	}
	b.SetBytes(int64(c.DataSymbols() * blockSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodePentagon(b *testing.B)      { benchEncode(b, polygon.New(5)) }
func BenchmarkEncodeHeptagon(b *testing.B)      { benchEncode(b, polygon.New(7)) }
func BenchmarkEncodeHeptagonLocal(b *testing.B) { benchEncode(b, heptlocal.New()) }
func BenchmarkEncodeRAIDM109(b *testing.B)      { benchEncode(b, raidm.New(9)) }

func benchDecode(b *testing.B, c core.Code, erase []int) {
	rng := rand.New(rand.NewSource(2))
	const blockSize = 1 << 20
	data := make([][]byte, c.DataSymbols())
	for i := range data {
		data[i] = make([]byte, blockSize)
		rng.Read(data[i])
	}
	symbols, err := c.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	nc := core.MaterializeNodes(c, symbols)
	nc.Erase(erase...)
	avail := nc.Available(c.Symbols())
	b.SetBytes(int64(c.DataSymbols() * blockSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(avail); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePentagonTwoErasures(b *testing.B) { benchDecode(b, polygon.New(5), []int{0, 1}) }
func BenchmarkDecodeHeptagonLocalThreeErasures(b *testing.B) {
	benchDecode(b, heptlocal.New(), []int{0, 1, 2})
}

// BenchmarkRepairExecutePentagon executes the full 2-node repair on
// 1 MiB blocks.
func BenchmarkRepairExecutePentagon(b *testing.B) {
	c := polygon.New(5)
	rng := rand.New(rand.NewSource(3))
	const blockSize = 1 << 20
	data := make([][]byte, c.DataSymbols())
	for i := range data {
		data[i] = make([]byte, blockSize)
		rng.Read(data[i])
	}
	symbols, err := c.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := c.PlanRepair([]int{0, 1})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(plan.Bandwidth() * blockSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nc := core.MaterializeNodes(c, symbols)
		nc.Erase(0, 1)
		b.StartTimer()
		if err := core.ExecuteRepair(nc, plan, blockSize); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkHopcroftKarp(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := bipartite.NewGraph(200, 200)
	for l := 0; l < 200; l++ {
		for d := 0; d < 2; d++ {
			g.AddEdge(l, rng.Intn(200))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.MaxMatching()
	}
}

// --- Ablations ---

// BenchmarkAblationRepairCostScaling contrasts Table 1 with and
// without repair-bandwidth-dependent repair rates: without it, RAID+m
// loses the penalty for rebuilding doubly-lost blocks from m whole
// blocks.
func BenchmarkAblationRepairCostScaling(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		p := reliability.DefaultParams()
		rowsWith, err := reliability.ComputeRow("raid+m-10-9", p)
		if err != nil {
			b.Fatal(err)
		}
		p.RepairCostScaling = false
		rowsWithout, err := reliability.ComputeRow("raid+m-10-9", p)
		if err != nil {
			b.Fatal(err)
		}
		with, without = rowsWith.MTTDLYears, rowsWithout.MTTDLYears
	}
	b.ReportMetric(without/with, "raidm-mttdl-inflation-x")
}

// BenchmarkAblationDelayScheduling contrasts pentagon locality with
// delay scheduling on and off on set-up 1.
func BenchmarkAblationDelayScheduling(b *testing.B) {
	cfg := mapred.Figure4Config()
	cfg.Codes = []string{"pentagon"}
	cfg.Loads = []float64{1.0}
	cfg.Trials = 2
	var on, off float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		cfg.Params.DelaySkips = 0
		ptsOn, err := mapred.RunExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Params.DelaySkips = -1
		ptsOff, err := mapred.RunExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		on, off = ptsOn[0].Locality, ptsOff[0].Locality
	}
	b.ReportMetric(on*100, "delay-on-%")
	b.ReportMetric(off*100, "delay-off-%")
}

// BenchmarkAblationPeelingVsDelay contrasts the future-work peeling
// assigner against the delay scheduler in the full MR simulator.
func BenchmarkAblationPeelingVsDelay(b *testing.B) {
	cfg := mapred.Figure4Config()
	cfg.Codes = []string{"heptagon"}
	cfg.Loads = []float64{1.0}
	cfg.Trials = 2
	var delay, peel float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		cfg.Params.Peeling = false
		ptsD, err := mapred.RunExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Params.Peeling = true
		ptsP, err := mapred.RunExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		delay, peel = ptsD[0].Locality, ptsP[0].Locality
	}
	b.ReportMetric(delay*100, "delay-%")
	b.ReportMetric(peel*100, "peeling-%")
}

// --- Extended-system benchmarks ---

func BenchmarkEncodeRS1410(b *testing.B) { benchEncode(b, rs.New(14, 10)) }

// BenchmarkStorePutGet measures the on-disk HDFS-RAID store round
// trip.
func BenchmarkStorePutGet(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	data := make([]byte, 1<<20)
	rng.Read(data)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		s, err := hdfsraid.Create(dir, "pentagon", 1<<16)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := s.Put("f", data); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Get("f"); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(data)))
}

// BenchmarkAvailability runs the exact 2^15 pattern enumeration for
// the heptagon-local code and reports the unavailability.
func BenchmarkAvailability(b *testing.B) {
	c, err := core.New("heptagon-local")
	if err != nil {
		b.Fatal(err)
	}
	p := reliability.Params{NodeMTTFHours: 99, NodeRepairHours: 1}
	var u float64
	for i := 0; i < b.N; i++ {
		res, err := reliability.StripeUnavailability(c, p, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		u = res.Unavailability
	}
	b.ReportMetric(u*1e9, "unavail-ppb")
}

// BenchmarkOnlineRepairMR runs Terasort with the RaidNode rebuild
// sharing the LAN (extension E14).
func BenchmarkOnlineRepairMR(b *testing.B) {
	cfg := mapred.Figure4Config()
	cfg.Failures = 2
	cfg.Codes = []string{"pentagon"}
	cfg.Loads = []float64{0.75}
	cfg.Params.OnlineRepair = true
	cfg.Trials = 2
	var job float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		pts, err := mapred.RunExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		job = pts[0].JobSeconds
	}
	b.ReportMetric(job, "job-s")
}

// BenchmarkReadFile measures the steady-state whole-file read path
// (pooled frames, per-stripe decode workers): bytes/s of file payload
// and — with -benchmem — the proof that block payloads are recycled,
// not re-allocated (only the returned file buffer remains).
func BenchmarkReadFile(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	data := make([]byte, 1<<20)
	rng.Read(data)
	s, err := hdfsraid.Create(b.TempDir(), "pentagon", 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Put("f", data); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Get("f"); err != nil { // warm the pools
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get("f"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGetMultiExtent measures Get of a file of two extents (30 MiB,
// 1 MiB blocks, 20-block extents, rs-14-10: two stripes, then one) with
// or without a read cache attached. At 64 MiB the cache takes no extent
// over 8 MiB, so both sides read the same bytes from the blocks and the
// pair prices what having a cache costs a read it cannot help.
func benchGetMultiExtent(b *testing.B, cache *hdfsraid.ReadCache) {
	s, size := multiExtentStore(b, cache)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get("f"); err != nil {
			b.Fatal(err)
		}
	}
}

// multiExtentStore stores benchGetMultiExtent's file "f", with the read
// cache attached, and reads it once to warm the pools. It returns the
// store and the file's size.
func multiExtentStore(b *testing.B, cache *hdfsraid.ReadCache) (*hdfsraid.Store, int) {
	rng := rand.New(rand.NewSource(12))
	data := make([]byte, 30<<20)
	rng.Read(data)
	s, err := hdfsraid.CreateExt(b.TempDir(), "rs-14-10", 1<<20, 20)
	if err != nil {
		b.Fatal(err)
	}
	s.SetReadCache(cache)
	if err := s.Put("f", data); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Get("f"); err != nil {
		b.Fatal(err)
	}
	return s, len(data)
}

func BenchmarkGetMultiExtentCached(b *testing.B) {
	benchGetMultiExtent(b, hdfsraid.NewReadCache(64<<20))
}
func BenchmarkGetMultiExtentUncached(b *testing.B) { benchGetMultiExtent(b, nil) }

// BenchmarkPreadFloor is the page-cache floor under
// BenchmarkGetMultiExtentUncached: the same bytes — 30 files of one
// 1 MiB block frame each — read back into one 30 MiB buffer on
// GOMAXPROCS goroutines, each file opened, pread in 128 KiB pieces and
// closed, with no checksum, no read ladder and no store. Get ÷ floor
// is what the store's read path adds over moving the bytes.
func BenchmarkPreadFloor(b *testing.B) {
	const files, size, piece = 30, 1 << 20, 128 << 10
	frame := make([]byte, block.FrameSize(size))
	rand.New(rand.NewSource(12)).Read(frame[:size])
	block.PutCellChecksums(frame[size:], frame[:size])
	dir, paths := b.TempDir(), make([]string, files)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprint(i))
		if err := os.WriteFile(paths[i], frame, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	dst := make([]byte, files*size)
	pread := func(i int) error {
		f, err := os.Open(paths[i])
		if err != nil {
			return err
		}
		defer f.Close()
		for off := 0; off < size; off += piece {
			if _, err := f.ReadAt(dst[i*size+off:i*size+off+piece], int64(off)); err != nil {
				return err
			}
		}
		return nil
	}
	b.SetBytes(int64(len(dst)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for f := int(next.Add(1)) - 1; f < files; f = int(next.Add(1)) - 1 {
					if err := pread(f); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// BenchmarkReadAtWhole is the read ladder's rung between the floor and
// Get: benchGetMultiExtent's 30 MiB file read by ReadAt into one buffer
// reused across iterations, so the kernel maps no fresh result pages.
// ReadAtWhole ÷ PreadFloor is the store's own read path; Get ÷
// ReadAtWhole is the cost of a freshly allocated result.
func BenchmarkReadAtWhole(b *testing.B) {
	s, size := multiExtentStore(b, nil)
	p := make([]byte, size)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadAt(p, "f", 0); err != nil {
			b.Fatal(err)
		}
	}
}

// smallFrame is a 16 KiB block frame, the block size of the served
// benchmark's small-object workloads.
func smallFrame() []byte {
	const size = 16 << 10
	frame := make([]byte, block.FrameSize(size))
	rand.New(rand.NewSource(14)).Read(frame[:size])
	block.PutCellChecksums(frame[size:], frame[:size])
	return frame
}

// BenchmarkBlockFileCreate prices what a small PUT pays per block: one
// 16 KiB frame written as a new file, the way the store writes a block
// (os.WriteFile, no sync). The files are removed, untimed, every 1024
// creates. Run it with TMPDIR on the disk a store lives on, not tmpfs.
func BenchmarkBlockFileCreate(b *testing.B) {
	frame, dir := smallFrame(), b.TempDir()
	path := func(i int) string { return filepath.Join(dir, fmt.Sprint(i)) }
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 && i > 0 {
			b.StopTimer()
			for j := i - 1024; j < i; j++ {
				if err := os.Remove(path(j)); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		if err := os.WriteFile(path(i), frame, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameAppend is BenchmarkBlockFileCreate's alternative: the
// same frame appended to one open file, no sync — what a packed
// per-node segment would pay per block. The file is truncated, untimed,
// every 4096 appends. Run it with TMPDIR on a store's disk, not tmpfs.
func BenchmarkFrameAppend(b *testing.B) {
	frame := smallFrame()
	f, err := os.Create(filepath.Join(b.TempDir(), "segment"))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 && i > 0 {
			b.StopTimer()
			if err := f.Truncate(0); err != nil {
				b.Fatal(err)
			}
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := f.Write(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadAtUnaligned measures a 1 MiB ReadAt at unaligned offsets
// from a fixed seed on benchGetMultiExtent's store (no cache) — the
// ranged read of the bulk_tier workload: two 1 MiB blocks, cut at the
// range's edges, nine times in ten in one rs-14-10 stripe.
func BenchmarkReadAtUnaligned(b *testing.B) {
	s, size := multiExtentStore(b, nil)
	rng := rand.New(rand.NewSource(13))
	p := make([]byte, 1<<20)
	b.SetBytes(int64(len(p)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadAt(p, "f", int64(rng.Intn(size-len(p)+1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadBlockInto measures the steady-state healthy single-block
// read into a caller buffer: zero block-payload allocations per op.
func BenchmarkReadBlockInto(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 1<<20)
	rng.Read(data)
	s, err := hdfsraid.Create(b.TempDir(), "pentagon", 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Put("f", data); err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, s.BlockSize())
	if _, err := s.ReadBlockInto(dst, "f", 0, 0); err != nil { // warm the pools
		b.Fatal(err)
	}
	b.SetBytes(int64(len(dst)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadBlockInto(dst, "f", 0, i%9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadBlockDegraded measures the partial-parity degraded read
// (both replicas of the symbol dead), whose decode coefficients come
// from the per-pattern plan cache after the first read.
func BenchmarkReadBlockDegraded(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	data := make([]byte, 1<<20)
	rng.Read(data)
	s, err := hdfsraid.Create(b.TempDir(), "pentagon", 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Put("f", data); err != nil {
		b.Fatal(err)
	}
	for _, v := range s.Code().Placement().SymbolNodes[0] {
		if err := s.KillNode(v); err != nil {
			b.Fatal(err)
		}
	}
	dst := make([]byte, s.BlockSize())
	if _, err := s.ReadBlockInto(dst, "f", 0, 0); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(dst)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadBlockInto(dst, "f", 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tiering subsystem ---

// benchTranscode measures online transcode throughput between two
// codes on a 1 MiB on-disk file (bytes/s is file bytes per move).
func benchTranscode(b *testing.B, from, to string) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 1<<20)
	rng.Read(data)
	dir := b.TempDir()
	s, err := hdfsraid.Create(dir, from, 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Put("f", data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := to
		if i%2 == 1 {
			target = from
		}
		if _, err := s.Transcode("f", target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranscodeRSToPentagon alternates cold RS(14,10) and hot
// pentagon encodings of one file — the tiering layer's promote/demote
// cycle.
func BenchmarkTranscodeRSToPentagon(b *testing.B) { benchTranscode(b, "rs-14-10", "pentagon") }

// BenchmarkTranscodeRSToHeptagonLocal alternates RS(14,10) and the
// heptagon-local code.
func BenchmarkTranscodeRSToHeptagonLocal(b *testing.B) {
	benchTranscode(b, "rs-14-10", "heptagon-local")
}

// BenchmarkTranscodeStreaming measures the streaming tier-move
// pipeline on a 16 MiB file: per-stripe reads through the old code
// feed the new code's encoder from pooled buffers, so -benchmem's
// B/op is the proof the move allocates O(stripes in flight), not
// O(file) — the old path began every move with a file-sized buffer.
func BenchmarkTranscodeStreaming(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	data := make([]byte, 16<<20)
	rng.Read(data)
	s, err := hdfsraid.Create(b.TempDir(), "rs-14-10", 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Put("f", data); err != nil {
		b.Fatal(err)
	}
	// Warm the pools with one promote/demote cycle.
	for _, code := range []string{"pentagon", "rs-14-10"} {
		if _, err := s.Transcode("f", code); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := "pentagon"
		if i%2 == 1 {
			target = "rs-14-10"
		}
		if _, err := s.Transcode("f", target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranscodeParallel moves two distinct files concurrently —
// the per-extent move locks at work. Compare ns/op against
// BenchmarkTranscodeStreaming at the same total bytes: with moves of
// distinct files truly overlapped, a pair costs well under two
// serialized moves (the old store-wide transcode mutex pinned this at
// exactly 2x).
func BenchmarkTranscodeParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	s, err := hdfsraid.Create(b.TempDir(), "rs-14-10", 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	const fileLen = 8 << 20
	for _, name := range []string{"f0", "f1"} {
		data := make([]byte, fileLen)
		rng.Read(data)
		if err := s.Put(name, data); err != nil {
			b.Fatal(err)
		}
		for _, code := range []string{"pentagon", "rs-14-10"} {
			if _, err := s.Transcode(name, code); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.SetBytes(2 * fileLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := "pentagon"
		if i%2 == 1 {
			target = "rs-14-10"
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for j, name := range []string{"f0", "f1"} {
			j, name := j, name
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[j] = s.Transcode(name, target)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// smallMoveStore is the served workloads' shape of a tier move: a
// 320 KiB file at 16 KiB blocks on rs-14-10 (two full stripes; two
// pentagon stripes and a shortened third), warmed by one promote/demote
// cycle, beside an unrelated file.
func smallMoveStore(b *testing.B) *hdfsraid.Store {
	rng := rand.New(rand.NewSource(16))
	s, err := hdfsraid.Create(b.TempDir(), "rs-14-10", 16<<10)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"moving", "other"} {
		data := make([]byte, 320<<10)
		rng.Read(data)
		if err := s.Put(name, data); err != nil {
			b.Fatal(err)
		}
	}
	for _, code := range []string{"pentagon", "rs-14-10"} {
		if _, err := s.Transcode("moving", code); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkMoveSmallExtent prices one small extent move end to end and
// in fsyncs (durable.Syncs: the manifest log's appends, plus a share of
// the checkpoint every few hundred of them): what a promotion costs the
// daemon per 320 KiB extent. docs/BENCHMARKS.md § "A move is one
// record" keeps the numbers.
func BenchmarkMoveSmallExtent(b *testing.B) {
	s := smallMoveStore(b)
	syncs := durable.Syncs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Transcode("moving", []string{"pentagon", "rs-14-10"}[i%2]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/move")
	b.ReportMetric(float64(durable.Syncs()-syncs)/float64(b.N), "fsyncs/move")
}

// BenchmarkReadDuringMoves measures what a foreground read of an
// unrelated file waits while moves run back to back on the same store:
// each iteration is one 4 KiB ReadAt, and p99, p99.9 and the worst
// stall are reported beside the mean (the loop is closed, so a read
// that waits out a move is one sample among the few hundred that fit
// between two moves: the tail, not p99, is where a lock hold shows). A
// move holds the store's write lock for its one manifest append;
// whatever else it held it across shows up here.
func BenchmarkReadDuringMoves(b *testing.B) {
	s := smallMoveStore(b)
	stop, moved := make(chan struct{}), make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				moved <- nil
				return
			default:
			}
			if _, err := s.Transcode("moving", []string{"pentagon", "rs-14-10"}[i%2]); err != nil {
				moved <- err
				return
			}
		}
	}()
	p, lat := make([]byte, 4<<10), make([]time.Duration, b.N)
	b.ResetTimer()
	for i := range lat {
		t0 := time.Now()
		if _, err := s.ReadAt(p, "other", int64(i%79)<<12); err != nil {
			b.Fatal(err)
		}
		lat[i] = time.Since(t0)
	}
	b.StopTimer()
	close(stop)
	if err := <-moved; err != nil {
		b.Fatal(err)
	}
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)*99/100].Microseconds()), "p99-us")
	b.ReportMetric(float64(lat[len(lat)*999/1000].Microseconds()), "p99.9-us")
	b.ReportMetric(float64(lat[len(lat)-1].Microseconds()), "max-us")
}

// BenchmarkRepairPooled executes a full on-disk node repair over a
// multi-stripe file; with -benchmem it shows the recovered blocks
// recycling through the payload pool instead of being re-allocated per
// stripe.
func BenchmarkRepairPooled(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	data := make([]byte, 8<<20)
	rng.Read(data)
	s, err := hdfsraid.Create(b.TempDir(), "pentagon", 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Put("f", data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := s.KillNode(1); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := s.Repair([]int{1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeatTrackerTouch measures the tracker under concurrent
// read-hot-path load across 10k files.
func BenchmarkHeatTrackerTouch(b *testing.B) {
	tr := tier.NewTracker(3600)
	names := make([]string, 10_000)
	for i := range names {
		names[i] = workload.TraceFileName(i)
	}
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(8))
		now := 0.0
		for pb.Next() {
			now += 0.001
			tr.TouchExtent(names[rng.Intn(len(names))], 0, now)
		}
	})
}

// BenchmarkStoreGetWithHeatHook measures the read-path overhead of the
// tier heat hook against BenchmarkStorePutGet's bare Get.
func BenchmarkStoreGetWithHeatHook(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	data := make([]byte, 1<<20)
	rng.Read(data)
	s, err := hdfsraid.Create(b.TempDir(), "pentagon", 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Put("f", data); err != nil {
		b.Fatal(err)
	}
	tr := tier.NewTracker(3600)
	now := 0.0
	s.OnReadExtent = func(name string, ext int) { now += 0.001; tr.TouchExtent(name, ext, now) }
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get("f"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTieringReplay runs the simulated tiering loop — Zipf trace,
// heat, policy, simulated transcodes — and reports the final hot-file
// count.
func BenchmarkTieringReplay(b *testing.B) {
	trace, err := workload.ZipfTrace(workload.TraceConfig{
		Files: 40, Accesses: 4000, ZipfS: 1.4, Rate: 20, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	var hot int
	for i := 0; i < b.N; i++ {
		ct := tier.NewClusterTarget(30, 20, rand.New(rand.NewSource(1)))
		for j := 0; j < 40; j++ {
			if err := ct.AddFile(workload.TraceFileName(j), "rs-14-10"); err != nil {
				b.Fatal(err)
			}
		}
		d, err := tier.NewDaemon(ct, tier.Policy{
			HotCode: "pentagon", ColdCode: "rs-14-10",
			PromoteAt: 8, DemoteAt: 2, MinDwell: 10,
		}, tier.NewTracker(60), tier.DaemonConfig{Interval: 10})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tier.Replay(sim.NewEngine(), trace, d, nil); err != nil {
			b.Fatal(err)
		}
		hot = 0
		for _, name := range ct.Files() {
			if code, _, _ := ct.ExtentCode(name, 0); code == "pentagon" {
				hot++
			}
		}
	}
	b.ReportMetric(float64(hot), "hot-files")
}
