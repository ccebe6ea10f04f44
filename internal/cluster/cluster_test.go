package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/code/polygon"
	"repro/internal/code/replication"
	"repro/internal/core"
)

func noneDown(int) bool { return false }

func TestPlaceFileShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := polygon.New(5)
	f, err := PlaceFile(c, 25, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 50 {
		t.Fatalf("placed %d blocks, want 50", len(f.Blocks))
	}
	// 50 data blocks need ceil(50/9) = 6 stripes.
	if len(f.StripeNodes) != 6 {
		t.Fatalf("used %d stripes, want 6", len(f.StripeNodes))
	}
	for i, b := range f.Blocks {
		if b.ID != i {
			t.Fatalf("block %d has ID %d", i, b.ID)
		}
		if len(b.Replicas) != 2 {
			t.Fatalf("block %d has %d replicas", i, len(b.Replicas))
		}
		for _, r := range b.Replicas {
			if r < 0 || r >= 25 {
				t.Fatalf("block %d replica on invalid node %d", i, r)
			}
		}
	}
	for _, chosen := range f.StripeNodes {
		seen := map[int]bool{}
		for _, v := range chosen {
			if seen[v] {
				t.Fatal("stripe reuses a node")
			}
			seen[v] = true
		}
	}
}

func TestPlaceFileValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := PlaceFile(polygon.New(7), 5, 10, rng); err == nil {
		t.Fatal("placed a heptagon on 5 nodes")
	}
	if _, err := PlaceFile(polygon.New(5), 25, 0, rng); err == nil {
		t.Fatal("accepted zero blocks")
	}
}

func TestReadPlanLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f, err := PlaceFile(polygon.New(5), 25, 9, rng)
	if err != nil {
		t.Fatal(err)
	}
	b := f.Blocks[0]
	fetches, local, err := f.ReadPlan(0, noneDown, b.Replicas[0])
	if err != nil {
		t.Fatal(err)
	}
	if !local || len(fetches) != 0 {
		t.Fatalf("read at replica holder: local=%v fetches=%v", local, fetches)
	}
}

func TestReadPlanRemoteCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f, err := PlaceFile(polygon.New(5), 25, 9, rng)
	if err != nil {
		t.Fatal(err)
	}
	b := f.Blocks[0]
	// Find a node that is not a replica holder.
	at := -1
	for v := 0; v < 25; v++ {
		if v != b.Replicas[0] && v != b.Replicas[1] {
			at = v
			break
		}
	}
	fetches, local, err := f.ReadPlan(0, noneDown, at)
	if err != nil {
		t.Fatal(err)
	}
	if local || len(fetches) != 1 {
		t.Fatalf("remote read: local=%v fetches=%v", local, fetches)
	}
	if fetches[0].From != b.Replicas[0] && fetches[0].From != b.Replicas[1] {
		t.Fatalf("fetch from non-replica node %d", fetches[0].From)
	}
}

func TestReadPlanDegradedPartialParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f, err := PlaceFile(polygon.New(5), 25, 9, rng)
	if err != nil {
		t.Fatal(err)
	}
	b := f.Blocks[0]
	downSet := map[int]bool{b.Replicas[0]: true, b.Replicas[1]: true}
	fetches, local, err := f.ReadPlan(0, func(v int) bool { return downSet[v] }, core.OffCluster)
	if err != nil {
		t.Fatal(err)
	}
	if local {
		t.Fatal("degraded read claimed locality")
	}
	// Pentagon degraded read: n-2 = 3 partial parities from the three
	// surviving stripe nodes.
	if len(fetches) != 3 {
		t.Fatalf("degraded read uses %d fetches, want 3", len(fetches))
	}
	for _, fe := range fetches {
		if downSet[fe.From] {
			t.Fatal("degraded read sourced from a down node")
		}
	}
}

func TestReadPlanInvalidBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f, _ := PlaceFile(polygon.New(5), 25, 9, rng)
	if _, _, err := f.ReadPlan(99, noneDown, 0); err == nil {
		t.Fatal("accepted invalid block")
	}
}

func TestRepairTrafficPentagonSingleNode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f, err := PlaceFile(polygon.New(5), 5, 9, rng) // one stripe covering all 5 nodes
	if err != nil {
		t.Fatal(err)
	}
	bytes := repairBill(t, f, []int{0}, 128*MB)
	// Repair-by-transfer: 4 block copies.
	if want := 4.0 * 128 * MB; bytes != want {
		t.Fatalf("repair traffic = %v, want %v", bytes, want)
	}
	bytes = repairBill(t, f, []int{0, 1}, 128*MB)
	if want := 10.0 * 128 * MB; bytes != want {
		t.Fatalf("two-node repair traffic = %v, want %v (paper: 10 blocks)", bytes, want)
	}
}

func TestRepairTrafficSkipsUntouchedStripes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f, err := PlaceFile(replication.New(2), 25, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	bytes := repairBill(t, f, []int{0}, MB)
	// Only stripes with a replica on node 0 pay; each pays one block.
	count := 0.0
	for _, b := range f.Blocks {
		for _, r := range b.Replicas {
			if r == 0 {
				count++
			}
		}
	}
	if bytes != count*MB {
		t.Fatalf("repair traffic = %v, want %v", bytes, count*MB)
	}
}

func TestSetupConfigs(t *testing.T) {
	s1 := Setup1()
	if s1.Nodes != 25 || s1.MapSlots != 2 || s1.ReduceSlots != 1 || s1.BlockBytes != 128*MB {
		t.Fatalf("Setup1 wrong: %+v", s1)
	}
	s2 := Setup2()
	if s2.Nodes != 9 || s2.MapSlots != 4 || s2.ReduceSlots != 2 || s2.BlockBytes != 512*MB {
		t.Fatalf("Setup2 wrong: %+v", s2)
	}
}

// repairBill sums the repair bandwidth, in bytes, of rebuilding the
// failed cluster nodes in every stripe of f through its code's repair
// plans (partial parities included): the RaidNode's network bill for a
// failure event.
func repairBill(t *testing.T, f *File, failed []int, blockBytes float64) float64 {
	t.Helper()
	total := 0.0
	for _, chosen := range f.StripeNodes {
		var local []int
		for i, v := range chosen {
			if slices.Contains(failed, v) {
				local = append(local, i)
			}
		}
		if len(local) == 0 {
			continue
		}
		plan, err := f.Code.PlanRepair(local)
		if err != nil {
			t.Fatal(err)
		}
		total += float64(plan.Bandwidth()) * blockBytes
	}
	return total
}
