package mapred

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	_ "repro/internal/code/heptlocal"
	"repro/internal/code/polygon"
	"repro/internal/code/replication"
	"repro/internal/core"
	"repro/internal/workload"
)

func runOne(t *testing.T, c core.Code, cfg cluster.Config, maps int, prm Params, down []int, seed int64) Metrics {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f, err := cluster.PlaceFile(c, cfg.Nodes, maps, rng)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Terasort(maps, cfg.Nodes*cfg.ReduceSlots)
	m, err := Run(cfg, f, spec, prm, down, rng)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestJobCompletes(t *testing.T) {
	m := runOne(t, replication.New(2), cluster.Setup1(), 50, DefaultParams(), nil, 1)
	if m.JobSeconds <= 0 {
		t.Fatal("job time not positive")
	}
	if m.Maps != 50 || m.Reduces != 25 {
		t.Fatalf("maps=%d reduces=%d", m.Maps, m.Reduces)
	}
	if m.LocalMaps > m.Maps {
		t.Fatal("more local maps than maps")
	}
}

func TestShuffleByteAccounting(t *testing.T) {
	// Terasort: shuffle bytes <= maps*blockBytes, and equals total
	// output minus the reduce-local pieces.
	cfg := cluster.Setup1()
	m := runOne(t, replication.New(3), cfg, 50, DefaultParams(), nil, 2)
	total := 50 * cfg.BlockBytes
	if m.ShuffleBytes > total || m.ShuffleBytes < total*0.8 {
		t.Fatalf("shuffle bytes = %v, want near %v (minus local pieces)", m.ShuffleBytes, total)
	}
	// Network conservation: the NICs carried at least the shuffle plus
	// remote reads.
	if m.TotalNetworkBytes < m.ShuffleBytes+m.HDFSReadBytes-1 {
		t.Fatalf("network bytes %v < shuffle %v + reads %v",
			m.TotalNetworkBytes, m.ShuffleBytes, m.HDFSReadBytes)
	}
}

func TestTrafficProportionalToLocalityLoss(t *testing.T) {
	// The paper's observation (iii): excess traffic vs 2-rep is almost
	// entirely the locality loss times the block size.
	cfg := cluster.Setup1()
	prm := DefaultParams()
	var repRemote, pentRemote, repTraffic, pentTraffic float64
	for seed := int64(0); seed < 8; seed++ {
		rep := runOne(t, replication.New(2), cfg, 50, prm, nil, seed)
		pent := runOne(t, polygon.New(5), cfg, 50, prm, nil, seed)
		repRemote += float64(rep.Maps - rep.LocalMaps)
		pentRemote += float64(pent.Maps - pent.LocalMaps)
		repTraffic += rep.HDFSReadBytes
		pentTraffic += pent.HDFSReadBytes
	}
	wantExcess := (pentRemote - repRemote) * cfg.BlockBytes
	gotExcess := pentTraffic - repTraffic
	if wantExcess <= 0 {
		t.Skip("pentagon had no extra remote maps in this sample")
	}
	ratio := gotExcess / wantExcess
	if ratio < 0.99 || ratio > 1.01 {
		t.Fatalf("excess traffic %v vs locality-loss prediction %v (ratio %.3f)",
			gotExcess, wantExcess, ratio)
	}
}

func TestFigure4Shape(t *testing.T) {
	cfg := Figure4Config()
	cfg.Trials = 4
	pts, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := func(code string, load float64) ResultPoint {
		p, ok := LookupResult(pts, code, load)
		if !ok {
			t.Fatalf("missing %s@%v", code, load)
		}
		return p
	}
	// (i) 2-rep close to 3-rep at moderate load.
	r3, r2 := at("3-rep", 0.5), at("2-rep", 0.5)
	if diff := r2.JobSeconds - r3.JobSeconds; diff > 0.05*r3.JobSeconds && diff > 3 {
		t.Errorf("2-rep (%.1fs) not close to 3-rep (%.1fs) at 50%% load", r2.JobSeconds, r3.JobSeconds)
	}
	// (ii) locality ordering at full load: 3-rep >= 2-rep > pentagon > heptagon.
	l3, l2 := at("3-rep", 1.0).Locality, at("2-rep", 1.0).Locality
	lp, lh := at("pentagon", 1.0).Locality, at("heptagon", 1.0).Locality
	if !(l3 >= l2-0.02 && l2 > lp && lp > lh) {
		t.Errorf("locality ordering wrong: 3rep %.2f 2rep %.2f pent %.2f hept %.2f", l3, l2, lp, lh)
	}
	// (iv) substantial loss with 2 slots: heptagon slower than 2-rep.
	if at("heptagon", 1.0).JobSeconds <= at("2-rep", 1.0).JobSeconds {
		t.Error("heptagon not slower than 2-rep at 2 map slots")
	}
	// Traffic ordering mirrors locality loss.
	if !(at("heptagon", 1.0).TrafficGB > at("pentagon", 1.0).TrafficGB &&
		at("pentagon", 1.0).TrafficGB > at("2-rep", 1.0).TrafficGB) {
		t.Error("traffic ordering wrong at 100% load")
	}
}

func TestFigure5Shape(t *testing.T) {
	cfg := Figure5Config()
	cfg.Trials = 4
	pts, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := func(code string, load float64) ResultPoint {
		p, ok := LookupResult(pts, code, load)
		if !ok {
			t.Fatalf("missing %s@%v", code, load)
		}
		return p
	}
	// The paper's conclusion (iv): with 4 cores the pentagon performs
	// very close to 2-rep even at 75% load.
	p, r := at("pentagon", 0.75), at("2-rep", 0.75)
	if p.JobSeconds > r.JobSeconds*1.05 {
		t.Errorf("pentagon (%.1fs) not close to 2-rep (%.1fs) at 75%% on set-up 2", p.JobSeconds, r.JobSeconds)
	}
	if p.Locality < r.Locality-0.08 {
		t.Errorf("pentagon locality %.2f far below 2-rep %.2f at 75%%", p.Locality, r.Locality)
	}
}

func TestDelaySchedulingImprovesLocality(t *testing.T) {
	cfg := cluster.Setup1()
	withDelay := DefaultParams()
	noDelay := DefaultParams()
	noDelay.DelaySkips = -1
	var ld, ln float64
	for seed := int64(0); seed < 6; seed++ {
		ld += runOne(t, polygon.New(5), cfg, 50, withDelay, nil, seed).Locality()
		ln += runOne(t, polygon.New(5), cfg, 50, noDelay, nil, seed).Locality()
	}
	if ld <= ln {
		t.Errorf("delay scheduling locality %.3f not above no-delay %.3f", ld/6, ln/6)
	}
}

func TestPeelingSchedulerRuns(t *testing.T) {
	cfg := cluster.Setup1()
	prm := DefaultParams()
	prm.Peeling = true
	m := runOne(t, polygon.New(5), cfg, 50, prm, nil, 3)
	if m.JobSeconds <= 0 || m.Maps != 50 {
		t.Fatalf("peeling run broken: %+v", m)
	}
}

// TestDegradedOperation is the paper's future-work experiment: the job
// completes with nodes down, using partial-parity degraded reads when
// both replicas are gone.
func TestDegradedOperation(t *testing.T) {
	cfg := cluster.Setup1()
	rng := rand.New(rand.NewSource(9))
	c := polygon.New(5)
	f, err := cluster.PlaceFile(c, cfg.Nodes, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Fail both replica holders of block 0 to force a degraded read.
	down := append([]int(nil), f.Blocks[0].Replicas...)
	spec := workload.Terasort(50, cfg.Nodes*cfg.ReduceSlots)
	m, err := Run(cfg, f, spec, DefaultParams(), down, rng)
	if err != nil {
		t.Fatal(err)
	}
	if m.DegradedMaps < 1 {
		t.Fatalf("expected at least one degraded map, got %d", m.DegradedMaps)
	}
}

func TestRunValidation(t *testing.T) {
	cfg := cluster.Setup1()
	rng := rand.New(rand.NewSource(10))
	f, _ := cluster.PlaceFile(replication.New(2), cfg.Nodes, 10, rng)
	spec := workload.Terasort(50, 5) // more maps than blocks
	if _, err := Run(cfg, f, spec, DefaultParams(), nil, rng); err == nil {
		t.Fatal("accepted job larger than file")
	}
	bad := DefaultParams()
	bad.MapMBps = 0
	if _, err := Run(cfg, f, workload.Terasort(10, 5), bad, nil, rng); err == nil {
		t.Fatal("accepted zero map rate")
	}
	if _, err := Run(cfg, f, workload.Terasort(10, 5), DefaultParams(), []int{99}, rng); err == nil {
		t.Fatal("accepted invalid down node")
	}
	allDown := make([]int, cfg.Nodes)
	for i := range allDown {
		allDown[i] = i
	}
	if _, err := Run(cfg, f, workload.Terasort(10, 5), DefaultParams(), allDown, rng); err == nil {
		t.Fatal("accepted fully-down cluster")
	}
}

func TestMapOnlyJob(t *testing.T) {
	cfg := cluster.Setup1()
	rng := rand.New(rand.NewSource(11))
	f, _ := cluster.PlaceFile(replication.New(2), cfg.Nodes, 20, rng)
	spec := workload.JobSpec{Name: "maponly", Maps: 20, Reduces: 0, MapOutputRatio: 0}
	m, err := Run(cfg, f, spec, DefaultParams(), nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if m.ShuffleBytes != 0 {
		t.Fatal("map-only job shuffled bytes")
	}
	if m.JobSeconds <= 0 {
		t.Fatal("job time not positive")
	}
}

func TestWorkloadVariety(t *testing.T) {
	// WordCount and Grep shuffle less than Terasort, so they finish
	// faster on the same input (future-work experiment E9).
	cfg := cluster.Setup1()
	rng := rand.New(rand.NewSource(12))
	f, _ := cluster.PlaceFile(replication.New(2), cfg.Nodes, 50, rng)
	times := map[string]float64{}
	for _, job := range []string{"terasort", "wordcount", "grep"} {
		spec, err := workload.ByName(job, 50, cfg.Nodes*cfg.ReduceSlots)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Run(cfg, f, spec, DefaultParams(), nil, rand.New(rand.NewSource(13)))
		if err != nil {
			t.Fatal(err)
		}
		times[job] = m.JobSeconds
	}
	if !(times["grep"] <= times["wordcount"] && times["wordcount"] <= times["terasort"]) {
		t.Errorf("job time ordering wrong: %+v", times)
	}
}

func TestHeptagonLocalRunsInMR(t *testing.T) {
	c, err := core.New("heptagon-local")
	if err != nil {
		t.Fatal(err)
	}
	m := runOne(t, c, cluster.Setup1(), 50, DefaultParams(), nil, 14)
	if m.Maps != 50 {
		t.Fatalf("heptagon-local MR run broken: %+v", m)
	}
}

func TestExperimentValidation(t *testing.T) {
	cfg := Figure4Config()
	cfg.Trials = 0
	if _, err := RunExperiment(cfg); err == nil {
		t.Fatal("accepted zero trials")
	}
	cfg = Figure4Config()
	cfg.Codes = []string{"nope"}
	cfg.Trials = 1
	if _, err := RunExperiment(cfg); err == nil {
		t.Fatal("accepted unknown code")
	}
}

func TestFormatResults(t *testing.T) {
	s := FormatResults([]ResultPoint{{Code: "pentagon", Load: 0.5, JobSeconds: 70}})
	if len(s) == 0 {
		t.Fatal("empty format")
	}
}

func TestMetricsLocality(t *testing.T) {
	m := Metrics{Maps: 10, LocalMaps: 7}
	if m.Locality() != 0.7 {
		t.Fatalf("locality = %v", m.Locality())
	}
	if (Metrics{}).Locality() != 1 {
		t.Fatal("empty metrics locality != 1")
	}
}

// TestOnlineRepair runs the job concurrently with the RaidNode rebuild
// of two failed nodes: the repair bytes equal the repair plans' bill,
// and the shared network makes the job no faster than without repair.
func TestOnlineRepair(t *testing.T) {
	cfg := cluster.Setup1()
	rng := rand.New(rand.NewSource(21))
	c := polygon.New(5)
	f, err := cluster.PlaceFile(c, cfg.Nodes, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	down := []int{3, 7}
	spec := workload.Terasort(50, cfg.Nodes*cfg.ReduceSlots)

	plain, err := Run(cfg, f, spec, DefaultParams(), down, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	prm := DefaultParams()
	prm.OnlineRepair = true
	withRepair, err := Run(cfg, f, spec, prm, down, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	if withRepair.RepairBytes <= 0 {
		t.Fatal("online repair moved no bytes")
	}
	// The plans' bill: each stripe that lost a node pays its code's
	// repair plan.
	want := 0.0
	for _, chosen := range f.StripeNodes {
		var local []int
		for i, v := range chosen {
			if slices.Contains(down, v) {
				local = append(local, i)
			}
		}
		if len(local) == 0 {
			continue
		}
		plan, err := c.PlanRepair(local)
		if err != nil {
			t.Fatal(err)
		}
		want += float64(plan.Bandwidth()) * cfg.BlockBytes
	}
	if withRepair.RepairBytes != want {
		t.Fatalf("repair bytes %v, want plan bill %v", withRepair.RepairBytes, want)
	}
	if withRepair.JobSeconds < plain.JobSeconds-1e-9 {
		t.Fatalf("job with concurrent repair (%.1fs) faster than without (%.1fs)",
			withRepair.JobSeconds, plain.JobSeconds)
	}
	if plain.RepairBytes != 0 {
		t.Fatal("repair bytes counted without online repair")
	}
}

// TestStragglers: heterogeneous node speeds stretch the makespan, and
// the model leaves byte accounting untouched.
func TestStragglers(t *testing.T) {
	cfg := cluster.Setup1()
	base := DefaultParams()
	slow := DefaultParams()
	slow.StragglerFraction = 0.2
	slow.StragglerSlowdown = 3
	var tBase, tSlow, bytesBase, bytesSlow float64
	for seed := int64(0); seed < 5; seed++ {
		b := runOne(t, replication.New(2), cfg, 50, base, nil, seed)
		s := runOne(t, replication.New(2), cfg, 50, slow, nil, seed)
		tBase += b.JobSeconds
		tSlow += s.JobSeconds
		bytesBase += b.ShuffleBytes
		bytesSlow += s.ShuffleBytes
	}
	if tSlow <= tBase {
		t.Errorf("stragglers did not slow the job: %.1f vs %.1f", tSlow/5, tBase/5)
	}
	if bytesBase != bytesSlow {
		t.Errorf("stragglers changed shuffle bytes: %v vs %v", bytesBase, bytesSlow)
	}
}
