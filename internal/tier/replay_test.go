package tier

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func replayOnce(t *testing.T, seed int64) (ReplayStats, *ClusterTarget) {
	t.Helper()
	trace, err := workload.ZipfTrace(workload.TraceConfig{
		Files: 20, Accesses: 2000, ZipfS: 1.4, Rate: 10, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	ct := NewClusterTarget(30, 20, rand.New(rand.NewSource(seed)))
	for i := 0; i < 20; i++ {
		if err := ct.AddFile(workload.TraceFileName(i), "rs-14-10"); err != nil {
			t.Fatal(err)
		}
	}
	d, err := NewDaemon(ct, Policy{
		HotCode: "pentagon", ColdCode: "rs-14-10",
		PromoteAt: 8, DemoteAt: 1, MinDwell: 10,
	}, NewTracker(30), DaemonConfig{Interval: 5})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Replay(sim.NewEngine(), trace, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	return stats, ct
}

func TestReplayPromotesHotFiles(t *testing.T) {
	stats, ct := replayOnce(t, 1)
	if stats.Accesses != 2000 {
		t.Fatalf("accesses = %d", stats.Accesses)
	}
	if stats.Rebalances == 0 {
		t.Fatal("no rebalances ran")
	}
	if stats.Promotions == 0 {
		t.Fatal("Zipf head never promoted")
	}
	if stats.BlocksMoved == 0 {
		t.Fatal("moves reported no traffic")
	}
	// The Zipf head (file-000) must sit on the hot code at the end.
	if code, _, _ := ct.ExtentCode(workload.TraceFileName(0), 0); code != "pentagon" {
		t.Fatalf("hottest file ended on %q", code)
	}
	// The cluster must still hold plenty of cold RS files: a sane
	// policy does not promote the long tail.
	cold := 0
	for _, name := range ct.Files() {
		if code, _, _ := ct.ExtentCode(name, 0); code == "rs-14-10" {
			cold++
		}
	}
	if cold < 10 {
		t.Fatalf("only %d of 20 files stayed cold", cold)
	}
}

func TestReplayDeterministic(t *testing.T) {
	a, _ := replayOnce(t, 7)
	b, _ := replayOnce(t, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replays diverged:\n%+v\n%+v", a, b)
	}
}

func TestReplayOnAccessMetersReads(t *testing.T) {
	trace, err := workload.ZipfTrace(workload.TraceConfig{
		Files: 5, Accesses: 100, ZipfS: 2, Rate: 10, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ct := NewClusterTarget(20, 10, rand.New(rand.NewSource(2)))
	for i := 0; i < 5; i++ {
		if err := ct.AddFile(workload.TraceFileName(i), "rs-9-6"); err != nil {
			t.Fatal(err)
		}
	}
	d, err := NewDaemon(ct, Policy{HotCode: "2-rep", ColdCode: "rs-9-6",
		PromoteAt: 4, DemoteAt: 1}, NewTracker(60), DaemonConfig{Interval: 2})
	if err != nil {
		t.Fatal(err)
	}
	metered := 0
	stats, err := Replay(sim.NewEngine(), trace, d, func(a workload.Access, now float64) error {
		metered++
		_, err := ct.ReadCostAt(a.Name, -1, func(int) bool { return false })
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if metered != stats.Accesses {
		t.Fatalf("metered %d of %d accesses", metered, stats.Accesses)
	}
}

func TestReplayValidation(t *testing.T) {
	d, err := NewDaemon(NewClusterTarget(20, 10, rand.New(rand.NewSource(1))),
		testPolicy(), NewTracker(1), DaemonConfig{})
	if err != nil {
		t.Fatal(err)
	}
	trace := []workload.Access{{Name: "f", Time: 1}}
	if _, err := Replay(sim.NewEngine(), trace, d, nil); err == nil {
		t.Fatal("accepted zero rebalance interval")
	}
	if stats, err := Replay(sim.NewEngine(), nil, d, nil); err != nil || stats.Accesses != 0 {
		t.Fatalf("empty trace: %+v, %v", stats, err)
	}
}

// TestReplayAttributesAccesses: a trace access lands on the extent
// holding its block; one without an offset (Block -1), or past the
// file, touches every extent of its file, as a whole-file read does.
func TestReplayAttributesAccesses(t *testing.T) {
	ct := NewClusterTarget(30, 20, rand.New(rand.NewSource(13)))
	ct.ExtentBlocks = 10
	if err := ct.AddFile("f", "rs-14-10"); err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(0)
	d, err := NewDaemon(ct, testPolicy(), tr, DaemonConfig{Interval: 100})
	if err != nil {
		t.Fatal(err)
	}
	trace := []workload.Access{
		{Name: "f", Block: 3, Time: 1},
		{Name: "f", Block: 15, Time: 2},
		{Name: "f", Block: 15, Time: 3},
		{Name: "f", Block: -1, Time: 4},
		{Name: "f", Block: 99, Time: 5},
	}
	if _, err := Replay(sim.NewEngine(), trace, d, nil); err != nil {
		t.Fatal(err)
	}
	if e0, e1 := tr.ExtentHeat("f", 0, 5), tr.ExtentHeat("f", 1, 5); e0 != 3 || e1 != 4 {
		t.Fatalf("extent heat %v, %v; want 3, 4", e0, e1)
	}
}
