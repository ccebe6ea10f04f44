package tier

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/hdfsraid"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestManagerPromotesHotExtentOnDisk is the extent-tiering acceptance
// scenario against the real store: a large cold file whose head extent
// alone is hot gets exactly that extent promoted — the move's traffic
// is extent-sized, the tail stays on RS — and the extent demotes again
// when it cools.
func TestManagerPromotesHotExtentOnDisk(t *testing.T) {
	s, err := hdfsraid.CreateExt(t.TempDir(), "rs-9-6", blockSize, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := randomBytes(24*blockSize, 40) // 4 extents of 6 blocks
	if err := s.Put("f", want); err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(100)
	s.OnReadExtent = func(name string, ext int) { tr.TouchExtent(name, ext, 0) }

	// Six block reads inside extent 0 heat only extent 0.
	buf := make([]byte, s.BlockSize())
	for i := 0; i < 6; i++ {
		if _, err := s.ReadBlockInto(buf, "f", 0, i%6); err != nil {
			t.Fatal(err)
		}
	}
	d := oneShot(t, StoreTarget{s}, Policy{
		HotCode: "pentagon", ColdCode: "rs-9-6", PromoteAt: 5, DemoteAt: 1,
	}, tr)
	moves, err := d.Tick(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 1 || !moves[0].Promote || moves[0].Ext != 0 || moves[0].To != "pentagon" {
		t.Fatalf("moves = %+v, want one promotion of extent 0", moves)
	}
	// Extent-scoped traffic: 6 blocks read + 1 shortened pentagon
	// stripe — 6 data symbols and the parity at two replicas each, 14
	// (the stripe's other 3 data symbols are known zeros, never
	// stored) — not the file's 24 blocks.
	if moves[0].BlocksMoved != 6+14 {
		t.Fatalf("promotion moved %d block-units, want 20 (extent-scoped)", moves[0].BlocksMoved)
	}
	for ext, wantCode := range []string{"pentagon", "rs-9-6", "rs-9-6", "rs-9-6"} {
		if code, _ := s.ExtentCode("f", ext); code != wantCode {
			t.Fatalf("extent %d on %q, want %q", ext, code, wantCode)
		}
	}
	got, err := s.Get("f")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("bytes changed across extent promotion (%v)", err)
	}

	// Seven half-lives later the extent has cooled: it demotes alone.
	moves, err = d.Tick(700)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 1 || moves[0].Promote || moves[0].Ext != 0 || moves[0].To != "rs-9-6" {
		t.Fatalf("demotion moves = %+v", moves)
	}
	if code, _ := s.FileCode("f"); code != "rs-9-6" {
		t.Fatalf("file code after demote = %q", code)
	}
	got, err = s.Get("f")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("bytes changed across extent demotion (%v)", err)
	}
}

// replayTiered replays one intra-file-skewed trace against a cluster
// target tiering at the given extent size (0 = whole files) and
// returns the stats plus the degraded-read transfer count.
func replayTiered(t *testing.T, extBlocks int) (ReplayStats, int) {
	t.Helper()
	const (
		files  = 20
		blocks = 40
	)
	trace, err := workload.ZipfTrace(workload.TraceConfig{
		Files: files, Accesses: 4000, ZipfS: 1.3, Rate: 20, Seed: 11,
		BlocksPerFile: blocks, BlockZipfS: 1.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ct := NewClusterTarget(30, blocks, rand.New(rand.NewSource(11)))
	ct.ExtentBlocks = extBlocks
	for i := 0; i < files; i++ {
		if err := ct.AddFile(workload.TraceFileName(i), "rs-14-10"); err != nil {
			t.Fatal(err)
		}
	}
	d, err := NewDaemon(ct, Policy{
		HotCode: "pentagon", ColdCode: "rs-14-10",
		PromoteAt: 8, DemoteAt: 2, MinDwell: 10,
	}, NewTracker(60), DaemonConfig{Interval: 5})
	if err != nil {
		t.Fatal(err)
	}
	down := func(v int) bool { return v == 0 || v == 1 }
	transfers := 0
	stats, err := Replay(sim.NewEngine(), trace, d, func(a workload.Access, now float64) error {
		cost, err := ct.ReadCostAt(a.Name, a.Block, down)
		transfers += cost
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats, transfers
}

// TestExtentTieringBeatsWholeFile is the frontier acceptance check:
// on a trace whose skew lives inside files (hot heads, cold tails),
// extent-granular tiering must promote the hot data while moving
// fewer bytes than whole-file tiering — the whole point of the
// refactor. Both runs replay the identical trace and policy.
func TestExtentTieringBeatsWholeFile(t *testing.T) {
	whole, _ := replayTiered(t, 0)
	extent, _ := replayTiered(t, 10)
	if whole.Promotions == 0 || extent.Promotions == 0 {
		t.Fatalf("tiering never promoted: whole %+v, extent %+v", whole, extent)
	}
	if extent.BlocksMoved >= whole.BlocksMoved {
		t.Fatalf("extent tiering moved %d blocks, whole-file %d; extents must move less on intra-file skew",
			extent.BlocksMoved, whole.BlocksMoved)
	}
}

// TestReplayBlockDeterministic: offset-bearing replays are as
// deterministic as the file-level ones.
func TestReplayBlockDeterministic(t *testing.T) {
	a, at := replayTiered(t, 10)
	b, bt := replayTiered(t, 10)
	if a.Promotions != b.Promotions || a.BlocksMoved != b.BlocksMoved || at != bt {
		t.Fatalf("extent replays diverged: %+v/%d vs %+v/%d", a, at, b, bt)
	}
}

// TestClusterTargetExtents covers the extent surface of the simulated
// target: extent lookup and per-extent transcode traffic and codes.
func TestClusterTargetExtents(t *testing.T) {
	ct := NewClusterTarget(30, 20, rand.New(rand.NewSource(12)))
	ct.ExtentBlocks = 10
	if err := ct.AddFile("f", "rs-14-10"); err != nil {
		t.Fatal(err)
	}
	if n := ct.Extents("f"); n != 2 {
		t.Fatalf("extents = %d, want 2", n)
	}
	if ext := ct.ExtentOf("f", 3); ext != 0 {
		t.Fatalf("ExtentOf(3) = %d", ext)
	}
	if ext := ct.ExtentOf("f", 15); ext != 1 {
		t.Fatalf("ExtentOf(15) = %d", ext)
	}
	cost, err := ct.ExtentMoveCost("f", 0, "pentagon")
	if err != nil {
		t.Fatal(err)
	}
	moved, err := ct.TranscodeExtent("f", 0, "pentagon", 1)
	if err != nil {
		t.Fatal(err)
	}
	// 10 blocks read + ceil(10/9)=2 pentagon stripes * 20 replicas.
	if moved != 10+2*20 || cost != moved {
		t.Fatalf("extent transcode = %d (cost %d), want 50", moved, cost)
	}
	if code, _, _ := ct.ExtentCode("f", 0); code != "pentagon" {
		t.Fatalf("moved extent code = %q", code)
	}
	if code, _, _ := ct.ExtentCode("f", 1); code != "rs-14-10" {
		t.Fatalf("untouched extent code = %q", code)
	}
	phys, data := ct.StorageBlocks()
	// Extent 0: 2 pentagon stripes * 20; extent 1: 1 rs stripe * 14.
	if data != 20 || phys != 2*20+14 {
		t.Fatalf("storage = %d/%d", phys, data)
	}
	// Moving the remaining extent converges the file.
	if _, err := ct.TranscodeExtent("f", 1, "pentagon", 2); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := ct.ExtentCode("f", 1); code != "pentagon" {
		t.Fatalf("converged code = %q", code)
	}
}
