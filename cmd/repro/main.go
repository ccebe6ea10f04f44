// Command repro regenerates the paper's results, each at the paper's
// configuration:
//
//	repro table1   Table 1 (MTTDL); §1 availability and repair traffic
//	repro fig3     Figure 3: map-task locality vs load, mu = 2/4/8 + peeling
//	repro fig4     Figure 4: Terasort on set-up 1 (25 nodes, 2 slots)
//	repro fig5     Figure 5: Terasort on set-up 2 (9 nodes, 4 slots)
//	repro repair   §2.1/§3.1 repair and read blocks (executed, verified);
//	               §2.2 heptagon-local rack-aware repair traffic
//	repro tier     hot/cold tiering frontier: overhead vs degraded reads
//
// Every output is deterministic; cmd/repro/testdata holds each one, and
// TestRepro compares them byte for byte. The variations are fields of
// the library configs (reliability.Params, locality.Config,
// mapred.ExperimentConfig, tier.DaemonConfig, workload.TraceConfig).
package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/cluster"
	"repro/internal/code/heptlocal"
	_ "repro/internal/code/polygon"
	_ "repro/internal/code/raidm"
	_ "repro/internal/code/replication"
	_ "repro/internal/code/rs"
	"repro/internal/core"
	"repro/internal/locality"
	"repro/internal/mapred"
	"repro/internal/reliability"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/workload"
)

const usage = "usage: repro <table1|fig3|fig4|fig5|repair|tier>"

var errUsage = errors.New(usage)

var subcommands = map[string]func(io.Writer) error{
	"table1": table1,
	"fig3":   fig3,
	"fig4":   func(w io.Writer) error { return figMR(w, 1) },
	"fig5":   func(w io.Writer) error { return figMR(w, 2) },
	"repair": repair,
	"tier":   tierFrontier,
}

func main() {
	sub := ""
	if len(os.Args) == 2 {
		sub = os.Args[1]
	}
	out := bufio.NewWriter(os.Stdout)
	err := run(sub, out)
	if errors.Is(err, errUsage) {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	if err == nil {
		err = out.Flush() // the first failed write, if any
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

// run writes subcommand sub's output to w.
func run(sub string, w io.Writer) error {
	f, ok := subcommands[sub]
	if !ok {
		return errUsage
	}
	return f(w)
}

// availabilitySamples is the Monte-Carlo sample count for codes longer
// than reliability.MaxExactNodes; table1 lists none.
const availabilitySamples = 2_000_000

func table1(w io.Writer) error {
	p := reliability.DefaultParams()
	rows, err := reliability.Table1(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 1 — %d-node system, node MTTF %.0f h, repair %.1f h, %d data blocks\n\n",
		p.SystemNodes, p.NodeMTTFHours, p.NodeRepairHours, p.DataBlocks)
	fmt.Fprint(w, reliability.FormatTable(rows))
	fmt.Fprintln(w, "\nPaper's values: 3-rep 1.20e+09, pentagon 1.05e+08, heptagon 2.68e+07,")
	fmt.Fprintln(w, "heptagon-local 8.34e+09, (10,9) RAID+m 2.03e+09, (12,11) RAID+m 6.50e+08")

	// Section 1: stripe unavailability under transient failures (1%
	// node downtime) and the annual repair bill per 128 MB data block.
	const blockMB = 128
	ap := reliability.Params{NodeMTTFHours: 99, NodeRepairHours: 1}
	fmt.Fprintf(w, "\nnode availability %.4f (MTTF %.0f h, MTTR %.1f h)\n\n",
		ap.NodeMTTFHours/(ap.NodeMTTFHours+ap.NodeRepairHours), ap.NodeMTTFHours, ap.NodeRepairHours)
	fmt.Fprintf(w, "%-16s %8s %16s %8s %22s\n", "Code", "Overhead", "Unavailability", "Method", "Repair traffic/block")
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"2-rep", "3-rep", "pentagon", "heptagon", "heptagon-local", "raid+m-10-9", "rs-14-10"} {
		c, err := core.New(name)
		if err != nil {
			return err
		}
		res, err := reliability.StripeUnavailability(c, ap, availabilitySamples, rng)
		if err != nil {
			return err
		}
		method := "sampled"
		if res.Exact {
			method = "exact"
		}
		traffic, err := reliability.AnnualRepairTraffic(c, ap, blockMB*1024*1024)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-16s %7.2fx %16.3e %8s %18.1f GB/yr\n",
			c.Name(), core.StorageOverhead(c), res.Unavailability, method, traffic/(1024*1024*1024))
	}
	fmt.Fprintln(w, "\nSection 1's argument in numbers: the double-replication codes keep")
	fmt.Fprintln(w, "data available through the transient failures that dominate large")
	fmt.Fprintln(w, "clusters, and their repair-by-transfer plans keep the repair bill at")
	fmt.Fprintln(w, "replication levels — unlike single-copy RS, whose every node failure")
	fmt.Fprintln(w, "costs k whole-block transfers per lost block.")
	return nil
}

func fig3(w io.Writer) error {
	for _, mu := range []int{2, 4, 8} {
		cfg := locality.DefaultConfig(mu)
		if mu == 4 {
			// The paper's fourth panel adds the peeling algorithm at mu=4.
			cfg.Schedulers = append(cfg.Schedulers, sched.Peeling{})
		}
		points, err := locality.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "=== Figure 3 panel: mu = %d map slots per node ===\n", mu)
		fmt.Fprintf(w, "%-10s %-10s", "code", "scheduler")
		for _, l := range cfg.Loads {
			fmt.Fprintf(w, " %5.0f%%", l*100)
		}
		fmt.Fprintln(w)
		for _, code := range cfg.Codes {
			for _, s := range cfg.Schedulers {
				fmt.Fprintf(w, "%-10s %-10s", code, s.Name())
				for _, l := range cfg.Loads {
					p, ok := locality.Lookup(points, code, s.Name(), l)
					if !ok {
						return fmt.Errorf("fig3: no point for %s/%s at load %g", code, s.Name(), l)
					}
					fmt.Fprintf(w, " %5.1f", p.Locality*100)
				}
				fmt.Fprintln(w)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// figMR prints Figure 4 (set-up 1) or Figure 5 (set-up 2).
func figMR(w io.Writer, setup int) error {
	cfg, fig := mapred.Figure4Config(), "Figure 4 (set-up 1: 25 nodes, 2 map slots)"
	if setup == 2 {
		cfg, fig = mapred.Figure5Config(), "Figure 5 (set-up 2: 9 nodes, 4 map slots)"
	}
	points, err := mapred.RunExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "=== %s — %s, %d trials ===\n\n", fig, cfg.Job, cfg.Trials)
	fmt.Fprint(w, mapred.FormatResults(points))
	return nil
}

// repairBlockSize is the block size every repair and read plan is
// executed on.
const repairBlockSize = 1 << 16

func repair(w io.Writer) error {
	fmt.Fprintf(w, "%-16s %14s %14s %16s %18s\n", "Code", "1-node repair", "2-node repair", "1 replica lost", "degraded read")
	for _, name := range []string{"2-rep", "3-rep", "pentagon", "heptagon", "heptagon-local", "raid+m-10-9", "rs-14-10"} {
		c, err := core.New(name)
		if err != nil {
			return err
		}
		cells := []string{"-", "-", "-", "-"}
		if cells[0], err = repairCost(c, []int{0}); err != nil {
			return err
		}
		if c.FaultTolerance() >= 2 {
			if cells[1], err = repairCost(c, []int{0, 1}); err != nil {
				return err
			}
		}
		// Data symbol 0 read with one of its nodes down, then with all
		// of them down (both replicas, or RS's single copy).
		holders := append([]int(nil), c.Placement().SymbolNodes[0]...)
		if cells[2], err = readCost(c, holders[:1]); err != nil {
			return err
		}
		if cells[3], err = readCost(c, holders); err != nil {
			return err
		}
		fmt.Fprintf(w, "%-16s %14s %14s %16s %18s\n", c.Name(), cells[0], cells[1], cells[2], cells[3])
	}
	fmt.Fprintln(w, "\nPaper §2.1: pentagon 2-node repair = 10 blocks.")
	fmt.Fprintln(w, "Paper §3.1: degraded read = 3 blocks (pentagon) vs 9 blocks ((10,9) RAID+m).")
	fmt.Fprintln(w)
	return rackRepair(w)
}

// repairCost plans and executes a repair of the failed nodes, returning
// its bandwidth.
func repairCost(c core.Code, failed []int) (string, error) {
	plan, err := c.PlanRepair(failed)
	if err != nil {
		return "", err
	}
	symbols, err := encodeRandom(c)
	if err != nil {
		return "", err
	}
	nc := core.MaterializeNodes(c, symbols)
	nc.Erase(failed...)
	if err := core.ExecuteRepair(nc, plan, repairBlockSize); err != nil {
		return "", fmt.Errorf("%s: repair execution: %w", c.Name(), err)
	}
	for v := range nc {
		for _, s := range c.Placement().NodeSymbols[v] {
			if !bytes.Equal(nc[v][s], symbols[s]) {
				return "", fmt.Errorf("%s: node %d symbol %d wrong after repair", c.Name(), v, s)
			}
		}
	}
	return fmt.Sprintf("%d blocks", plan.Bandwidth()), nil
}

// readCost plans and executes an off-cluster read of data symbol 0 with
// the down nodes erased, returning its bandwidth, or "-" when no node
// is left to read from.
func readCost(c core.Code, down []int) (string, error) {
	if len(down) >= c.Nodes() {
		return "-", nil
	}
	plan, err := c.PlanRead(0, down, core.OffCluster)
	if err != nil {
		return "", fmt.Errorf("%s: read plan: %w", c.Name(), err)
	}
	symbols, err := encodeRandom(c)
	if err != nil {
		return "", err
	}
	nc := core.MaterializeNodes(c, symbols)
	nc.Erase(down...)
	got, err := core.ExecuteRead(nc, plan, core.OffCluster, repairBlockSize)
	if err != nil {
		return "", fmt.Errorf("%s: read: %w", c.Name(), err)
	}
	if !bytes.Equal(got, symbols[0]) {
		return "", fmt.Errorf("%s: read returned wrong data", c.Name())
	}
	return fmt.Sprintf("%d blocks", plan.Bandwidth()), nil
}

func encodeRandom(c core.Code) ([][]byte, error) {
	rng := rand.New(rand.NewSource(1))
	data := make([][]byte, c.DataSymbols())
	for i := range data {
		data[i] = make([]byte, repairBlockSize)
		rng.Read(data[i])
	}
	return c.Encode(data)
}

// rackRepair places a heptagon-local file on a 24-node, 3-rack cluster
// (paper §2.2: the two heptagons and the global-parity node in three
// racks) and splits each repair's traffic into intra- and cross-rack.
func rackRepair(w io.Writer) error {
	topo := cluster.UniformTopology(24, 3)
	code := heptlocal.New()
	file, err := cluster.PlaceFileRackAware(code, topo, 120, rand.New(rand.NewSource(1)))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "placed %d blocks (%d stripes) of %s on 24 nodes / 3 racks\n",
		len(file.Blocks), len(file.StripeNodes), code.Name())
	chosen := file.StripeNodes[0]
	fmt.Fprintf(w, "stripe 0: heptagon A on nodes %v, heptagon B on %v, global on %d\n\n",
		chosen[:7], chosen[7:14], chosen[14])

	const blockMB = 128.0
	scenarios := []struct {
		name   string
		failed []int
	}{
		{"1 node of heptagon A", []int{chosen[2]}},
		{"2 nodes of heptagon A", []int{chosen[2], chosen[5]}},
		{"3 nodes of heptagon A (worst case)", []int{chosen[0], chosen[1], chosen[2]}},
		{"global-parity node", []int{chosen[14]}},
	}
	fmt.Fprintf(w, "%-36s %12s %12s\n", "failure", "intra-rack", "cross-rack")
	for _, sc := range scenarios {
		intra, cross, err := file.TrafficSplit(topo, sc.failed, blockMB)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-36s %9.0f MB %9.0f MB\n", sc.name, intra, cross)
	}
	fmt.Fprintln(w, "\nOne- and two-node repairs stay entirely inside the failed rack;")
	fmt.Fprintln(w, "only the rare triple failure (and the global rebuild) pays the")
	fmt.Fprintln(w, "cross-rack tax — exactly the §2.2 design intent.")
	return nil
}

// tierFrontier replays a Zipf-skewed trace (skewed inside files too:
// head blocks are hottest) against the simulated cluster and prints the
// storage-overhead vs degraded-read frontier: all-cold RS, all-hot, and
// adaptive policies at rising promote thresholds, each tiering whole
// files and then 10-block extents. Moves run through the rebalance
// daemon on the virtual clock, and degraded-read fetches and transcode
// traffic share one store-and-forward LAN.
func tierFrontier(w io.Writer) error {
	const (
		files, blocks, extBlocks = 40, 20, 10
		nodes, failed            = 30, 2
		hot, cold                = "pentagon", "rs-14-10"
		halfLife, every          = 60.0, 10.0 // seconds
		blockBytes               = 64e6
		netBytesPerSec           = 100e6
		seed                     = 1
	)
	tc := workload.TraceConfig{
		Files: files, Accesses: 8000, ZipfS: 1.4, Rate: 20, Seed: seed,
		BlocksPerFile: blocks, BlockZipfS: 1.8,
	}
	trace, err := workload.ZipfTrace(tc)
	if err != nil {
		return err
	}
	end := trace[len(trace)-1].Time

	// The same nodes fail in every run, for a fair comparison.
	isDown := make(map[int]bool, failed)
	frng := rand.New(rand.NewSource(seed + 1))
	for len(isDown) < failed {
		isDown[frng.Intn(nodes)] = true
	}
	down := func(v int) bool { return isDown[v] }
	var live []int
	for v := 0; v < nodes; v++ {
		if !isDown[v] {
			live = append(live, v)
		}
	}

	type row struct {
		label     string
		startCode string
		extBlocks int // 0 = whole-file tiering
		policy    tier.Policy
		every     float64
	}
	rows := []row{
		// Static baselines: thresholds that can never fire.
		{label: "all-cold " + cold, startCode: cold,
			policy: tier.Policy{HotCode: hot, ColdCode: cold, PromoteAt: 1}, every: end + 1},
		{label: "all-hot " + hot, startCode: hot,
			policy: tier.Policy{HotCode: hot, ColdCode: cold, PromoteAt: 1}, every: end + 1},
	}
	for _, promote := range []float64{4, 8, 16} {
		pol := tier.Policy{HotCode: hot, ColdCode: cold, PromoteAt: promote, DemoteAt: promote / 4, MinDwell: every}
		rows = append(rows,
			row{label: fmt.Sprintf("file p=%g/d=%g", promote, promote/4), startCode: cold, policy: pol, every: every},
			row{label: fmt.Sprintf("ext  p=%g/d=%g", promote, promote/4), startCode: cold, extBlocks: extBlocks, policy: pol, every: every},
		)
	}

	var dc tier.DaemonConfig // no budget
	fmt.Fprintf(w, "tiersim: %d files x %d blocks (ext=%d), %d accesses (zipf %.2f/blk %.2f), %d nodes, %d failed, hot=%s cold=%s, budget=%g MB/s\n\n",
		files, blocks, extBlocks, tc.Accesses, tc.ZipfS, tc.BlockZipfS, nodes, failed, hot, cold, dc.BytesPerSec/1e6)
	fmt.Fprintf(w, "%-18s %9s %6s %6s %10s %10s %10s %11s %11s\n",
		"policy", "hot-end", "moves", "defer", "moved-blk", "overhead", "deg-reads", "xfers/read", "read-ms")

	for _, r := range rows {
		ct := tier.NewClusterTarget(nodes, blocks, rand.New(rand.NewSource(seed)))
		ct.ExtentBlocks = r.extBlocks
		for i := 0; i < files; i++ {
			if err := ct.AddFile(workload.TraceFileName(i), r.startCode); err != nil {
				return err
			}
		}
		dc.Interval, dc.BlockBytes = r.every, blockBytes
		d, err := tier.NewDaemon(ct, r.policy, tier.NewTracker(halfLife), dc)
		if err != nil {
			return err
		}

		eng := sim.NewEngine()
		net := sim.NewNetwork(eng, nodes, netBytesPerSec)
		nrng := rand.New(rand.NewSource(seed + 2))
		pick := func(not int) int {
			for {
				if v := live[nrng.Intn(len(live))]; v != not {
					return v
				}
			}
		}
		d.OnMove = func(mv tier.MoveResult, now float64) {
			// The move crosses the LAN at once, block by block.
			src := live[nrng.Intn(len(live))]
			net.TransferChunked(src, pick(src), float64(mv.BlocksMoved)*blockBytes, blockBytes, func() {})
		}

		// Meter reads through the network and integrate storage
		// overhead over time. Each access reads the block the trace
		// names, so reads of a promoted hot extent price against the
		// replicated layout even while the file's tail sits on RS.
		var transfers, degraded int
		var overheadIntegral, lastT, readLatSum float64
		onAccess := func(a workload.Access, now float64) error {
			phys, data := ct.StorageBlocks()
			overheadIntegral += float64(phys) / float64(data) * (now - lastT)
			lastT = now
			cost, err := ct.ReadCostAt(a.Name, a.Block, down)
			if err != nil {
				return err
			}
			transfers += cost
			if cost == 0 {
				return nil // data-local task: no network involved
			}
			degraded++
			reader := live[nrng.Intn(len(live))]
			start, remaining := now, cost
			for j := 0; j < cost; j++ {
				net.Transfer(pick(reader), reader, blockBytes, func() {
					if remaining--; remaining == 0 {
						readLatSum += eng.Now() - start
					}
				})
			}
			return nil
		}
		stats, err := tier.Replay(eng, trace, d, onAccess)
		if err != nil {
			return err
		}

		hotEnd, extTotal := 0, 0
		for _, name := range ct.Files() {
			n := ct.Extents(name)
			extTotal += n
			for ext := 0; ext < n; ext++ {
				if code, _, _ := ct.ExtentCode(name, ext); code == hot {
					hotEnd++
				}
			}
		}
		fmt.Fprintf(w, "%-18s %5d/%-3d %6d %6d %10d %9.2fx %10d %11.2f %11.0f\n",
			r.label, hotEnd, extTotal, stats.Promotions+stats.Demotions, stats.Deferred,
			stats.BlocksMoved, overheadIntegral/lastT, degraded,
			float64(transfers)/float64(stats.Accesses), readLatSum/float64(stats.Accesses)*1000)
	}
	return nil
}
