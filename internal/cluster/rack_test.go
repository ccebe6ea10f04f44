package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/code/heptlocal"
	"repro/internal/code/polygon"
	"repro/internal/code/replication"
)

func TestUniformTopology(t *testing.T) {
	topo := UniformTopology(25, 3)
	if topo.Racks != 3 || len(topo.RackOf) != 25 {
		t.Fatalf("topology wrong: %+v", topo)
	}
	counts := map[int]int{}
	for _, r := range topo.RackOf {
		counts[r]++
	}
	for r := 0; r < 3; r++ {
		if counts[r] < 8 || counts[r] > 9 {
			t.Fatalf("rack %d has %d nodes", r, counts[r])
		}
	}
	rn := topo.RackNodes()
	total := 0
	for _, nodes := range rn {
		total += len(nodes)
	}
	if total != 25 {
		t.Fatal("RackNodes loses nodes")
	}
}

func TestUniformTopologyInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	UniformTopology(10, 0)
}

// TestHeptagonLocalRackPlacement verifies the paper's Section 2.2
// layout: the two heptagons and the global-parity node land in three
// different racks.
func TestHeptagonLocalRackPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	topo := UniformTopology(24, 3) // 8 nodes per rack
	c := heptlocal.New()
	f, err := PlaceFileRackAware(c, topo, 80, rng)
	if err != nil {
		t.Fatal(err)
	}
	for si, chosen := range f.StripeNodes {
		rackA := topo.RackOf[chosen[0]]
		for _, v := range chosen[:7] {
			if topo.RackOf[v] != rackA {
				t.Fatalf("stripe %d: heptagon A spans racks", si)
			}
		}
		rackB := topo.RackOf[chosen[7]]
		for _, v := range chosen[7:14] {
			if topo.RackOf[v] != rackB {
				t.Fatalf("stripe %d: heptagon B spans racks", si)
			}
		}
		rackG := topo.RackOf[chosen[14]]
		if rackA == rackB || rackA == rackG || rackB == rackG {
			t.Fatalf("stripe %d: groups share racks (%d, %d, %d)", si, rackA, rackB, rackG)
		}
	}
}

func TestRackAwareRejectsTooFewRacks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	topo := UniformTopology(24, 2)
	if _, err := PlaceFileRackAware(heptlocal.New(), topo, 40, rng); err == nil {
		t.Fatal("placed 3 rack groups in 2 racks")
	}
}

func TestRackAwareRejectsSmallRacks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// 5 racks of 3 nodes: no rack fits a heptagon.
	topo := UniformTopology(15, 5)
	if _, err := PlaceFileRackAware(heptlocal.New(), topo, 40, rng); err == nil {
		t.Fatal("placed a heptagon in a 3-node rack")
	}
}

// TestDefaultPolicySpreadsReplicas verifies the HDFS-style default:
// with enough racks, the two replicas of a 2-rep block land in
// different racks.
func TestDefaultPolicySpreadsReplicas(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	topo := UniformTopology(10, 5)
	f, err := PlaceFileRackAware(replication.New(2), topo, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range f.Blocks {
		if topo.RackOf[b.Replicas[0]] == topo.RackOf[b.Replicas[1]] {
			t.Fatalf("block %d has both replicas in rack %d", i, topo.RackOf[b.Replicas[0]])
		}
	}
}

func TestDefaultPolicyPentagonSpreads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	topo := UniformTopology(25, 5)
	f, err := PlaceFileRackAware(polygon.New(5), topo, 45, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Each stripe's 5 nodes should hit all 5 racks.
	for si, chosen := range f.StripeNodes {
		racks := map[int]bool{}
		for _, v := range chosen {
			racks[topo.RackOf[v]] = true
		}
		if len(racks) != 5 {
			t.Fatalf("stripe %d spans only %d racks", si, len(racks))
		}
	}
}

// TestLocalRepairStaysInRack is the payoff of the Section 2.2 layout:
// repairing one or two failed nodes of a heptagon moves zero
// cross-rack bytes, while a triple failure must cross racks.
func TestLocalRepairStaysInRack(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	topo := UniformTopology(24, 3)
	c := heptlocal.New()
	f, err := PlaceFileRackAware(c, topo, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	chosen := f.StripeNodes[0]
	// Two failures inside heptagon A.
	intra, cross, err := f.TrafficSplit(topo, []int{chosen[1], chosen[4]}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cross != 0 {
		t.Fatalf("local repair crossed racks: intra=%v cross=%v", intra, cross)
	}
	if intra != 16 {
		t.Fatalf("local repair moved %v blocks, want 16", intra)
	}
	// Three failures inside heptagon A engage the other rack(s).
	_, cross, err = f.TrafficSplit(topo, []int{chosen[0], chosen[1], chosen[2]}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cross == 0 {
		t.Fatal("triple repair should cross racks")
	}
}

func TestTrafficSplitMatchesRepairTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	topo := UniformTopology(25, 5)
	f, err := PlaceFileRackAware(polygon.New(5), topo, 45, rng)
	if err != nil {
		t.Fatal(err)
	}
	intra, cross, err := f.TrafficSplit(topo, []int{0, 1}, MB)
	if err != nil {
		t.Fatal(err)
	}
	if total := repairBill(t, f, []int{0, 1}, MB); intra+cross != total {
		t.Fatalf("split %v + %v != total %v", intra, cross, total)
	}
}
