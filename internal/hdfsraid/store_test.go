package hdfsraid

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	_ "repro/internal/code/heptlocal"
	_ "repro/internal/code/polygon"
	_ "repro/internal/code/raidm"
	_ "repro/internal/code/replication"
	_ "repro/internal/code/rs"
)

const blockSize = 1 << 12

func newStore(t *testing.T, code string) *Store {
	t.Helper()
	s, err := Create(t.TempDir(), code, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randomFile(t *testing.T, n int, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, n)
	rng.Read(data)
	return data
}

func TestPutGetRoundTrip(t *testing.T) {
	for _, code := range []string{"pentagon", "heptagon", "heptagon-local", "raid+m-10-9", "rs-9-6", "2-rep", "3-rep"} {
		t.Run(code, func(t *testing.T) {
			s := newStore(t, code)
			data := randomFile(t, 3*blockSize*s.Code().DataSymbols()/2, 1)
			if err := s.Put("f", data); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get("f")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("round trip mismatch")
			}
		})
	}
}

func TestCreateRejectsExisting(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, "pentagon", blockSize); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, "pentagon", blockSize); err == nil {
		t.Fatal("Create overwrote an existing store")
	}
}

func TestCreateUnknownCode(t *testing.T) {
	if _, err := Create(t.TempDir(), "nope", blockSize); err == nil {
		t.Fatal("accepted unknown code")
	}
}

func TestOpenPersists(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "pentagon", blockSize)
	if err != nil {
		t.Fatal(err)
	}
	data := randomFile(t, 5000, 2)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Code().Name() != "pentagon" {
		t.Fatal("manifest code lost")
	}
	got, err := s2.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reopened store returns wrong data")
	}
	if fi, ok := s2.Info("f"); !ok || fi.Length != 5000 {
		t.Fatalf("Info wrong: %+v %v", fi, ok)
	}
	if files := s2.Files(); len(files) != 1 || files[0] != "f" {
		t.Fatalf("Files = %v", files)
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("opened a non-existent store")
	}
}

func TestPutValidation(t *testing.T) {
	s := newStore(t, "pentagon")
	if err := s.Put("a/b", nil); err == nil {
		t.Fatal("accepted a path as a name")
	}
	if err := s.Put("", nil); err == nil {
		t.Fatal("accepted empty name")
	}
	if err := s.Put("f", randomFile(t, 100, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("f", randomFile(t, 100, 4)); err == nil {
		t.Fatal("accepted duplicate name")
	}
}

func TestGetMissingFile(t *testing.T) {
	s := newStore(t, "pentagon")
	if _, err := s.Get("nope"); err == nil {
		t.Fatal("Get returned data for a missing file")
	}
}

func TestGetSurvivesKilledNodes(t *testing.T) {
	s := newStore(t, "pentagon")
	data := randomFile(t, 4*blockSize*9, 5)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	if err := s.KillNode(0); err != nil {
		t.Fatal(err)
	}
	if err := s.KillNode(2); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read wrong")
	}
}

func TestGetFailsBeyondTolerance(t *testing.T) {
	s := newStore(t, "pentagon")
	if err := s.Put("f", randomFile(t, blockSize*9, 6)); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 1, 2} {
		if err := s.KillNode(v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Get("f"); err == nil {
		t.Fatal("read succeeded with 3 of 5 nodes dead")
	}
}

func TestRepairRestoresKilledNodes(t *testing.T) {
	for _, tc := range []struct {
		code   string
		failed []int
	}{
		{"pentagon", []int{1}},
		{"pentagon", []int{1, 3}},
		{"heptagon", []int{0, 6}},
		{"heptagon-local", []int{0, 1, 2}},
		{"raid+m-10-9", []int{4, 5}},
		{"rs-9-6", []int{2, 7}},
	} {
		t.Run(tc.code, func(t *testing.T) {
			s := newStore(t, tc.code)
			data := randomFile(t, 2*blockSize*s.Code().DataSymbols(), 7)
			if err := s.Put("f", data); err != nil {
				t.Fatal(err)
			}
			for _, v := range tc.failed {
				if err := s.KillNode(v); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := s.Repair(tc.failed)
			if err != nil {
				t.Fatal(err)
			}
			if rep.BlocksRestored == 0 || rep.Transfers == 0 {
				t.Fatalf("empty repair report: %+v", rep)
			}
			fsck, err := s.Fsck()
			if err != nil {
				t.Fatal(err)
			}
			if !fsck.Healthy() {
				t.Fatalf("store unhealthy after repair: %+v", fsck)
			}
			got, err := s.Get("f")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("data wrong after repair")
			}
		})
	}
}

func TestRepairBandwidthMatchesPlan(t *testing.T) {
	s := newStore(t, "pentagon")
	// Exactly 2 stripes.
	if err := s.Put("f", randomFile(t, 2*blockSize*9, 8)); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 1} {
		if err := s.KillNode(v); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Repair([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// 10 block-units per stripe (the paper's number), 2 stripes.
	if rep.Transfers != 20 {
		t.Fatalf("repair moved %d block-units, want 20", rep.Transfers)
	}
	if rep.Stripes != 2 {
		t.Fatalf("repair touched %d stripes, want 2", rep.Stripes)
	}
}

// TestRepairReadsOnlyPlannedBlocks counts the block files a repair
// opens: one per (source node, symbol) the plan's transfers read at a
// surviving node — a pentagon neighbour copies back the one block it
// shares with the lost node — not every surviving replica of the stripe.
func TestRepairReadsOnlyPlannedBlocks(t *testing.T) {
	for _, tc := range []struct {
		code   string
		failed []int
		reads  int64 // per stripe
	}{
		{"pentagon", []int{1}, 4},
		{"pentagon", []int{1, 3}, 9},
		{"heptagon-local", []int{0}, 6},
		{"heptagon-local", []int{0, 1}, 20},
	} {
		t.Run(fmt.Sprintf("%s/%v", tc.code, tc.failed), func(t *testing.T) {
			s := newStore(t, tc.code)
			if err := s.Put("f", randomFile(t, 2*blockSize*s.Code().DataSymbols(), 11)); err != nil {
				t.Fatal(err)
			}
			for _, v := range tc.failed {
				if err := s.KillNode(v); err != nil {
					t.Fatal(err)
				}
			}
			bio := &countingIO{}
			s.SetBlockIO(bio)
			rep, err := s.Repair(tc.failed)
			if err != nil || rep.Stripes != 2 {
				t.Fatalf("repair: %+v, %v", rep, err)
			}
			if got := bio.reads.Load() + bio.misses.Load(); got != 2*tc.reads {
				t.Fatalf("repair opened %d block files, want %d per stripe", got, tc.reads)
			}
			if fsck := mustFsck(t, s); !fsck.Healthy() {
				t.Fatalf("unhealthy after repair: %+v", fsck)
			}
		})
	}
}

func TestFsckDetectsDamage(t *testing.T) {
	s := newStore(t, "pentagon")
	if err := s.Put("f", randomFile(t, blockSize*9, 9)); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() || rep.Blocks != 20 {
		t.Fatalf("fresh store unhealthy: %+v", rep)
	}
	if err := s.CorruptBlock(s.Code().Placement().SymbolNodes[0][0], "f", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.KillNode(4); err != nil {
		t.Fatal(err)
	}
	rep, err = s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 {
		t.Fatalf("fsck corrupt = %d, want 1", rep.Corrupt)
	}
	if rep.Missing != 4 {
		t.Fatalf("fsck missing = %d, want 4 (one pentagon node)", rep.Missing)
	}
}

func TestGetDecodesAroundCorruption(t *testing.T) {
	s := newStore(t, "pentagon")
	data := randomFile(t, blockSize*9, 10)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	// Corrupt ONE replica of symbol 0: Get should fall back to the
	// other replica.
	holders := s.Code().Placement().SymbolNodes[0]
	if err := s.CorruptBlock(holders[0], "f", 0, 0); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read through corruption wrong")
	}
	// Corrupt the second replica too: now symbol 0 is gone, still
	// decodable via the XOR parity.
	if err := s.CorruptBlock(holders[1], "f", 0, 0); err != nil {
		t.Fatal(err)
	}
	got, err = s.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("parity decode after double corruption wrong")
	}
}

func TestKillNodeValidation(t *testing.T) {
	s := newStore(t, "pentagon")
	if err := s.KillNode(9); err == nil {
		t.Fatal("killed an invalid node")
	}
}

func TestEmptyFile(t *testing.T) {
	s := newStore(t, "pentagon")
	if err := s.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty file read back %d bytes", len(got))
	}
}

func TestCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, "pentagon", blockSize); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("opened a store with corrupt manifest")
	}
}

func TestReadBlockHealthyAndDegraded(t *testing.T) {
	s := newStore(t, "pentagon")
	data := randomFile(t, blockSize*9, 20)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	// Healthy read: zero transfers.
	got, cost, err := s.ReadBlock("f", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Fatalf("healthy read cost %d transfers", cost)
	}
	if !bytes.Equal(got, data[:blockSize]) {
		t.Fatal("healthy read wrong")
	}
	// Kill both replica holders of symbol 0: the degraded read costs
	// the paper's 3 partial-parity transfers.
	for _, v := range s.Code().Placement().SymbolNodes[0] {
		if err := s.KillNode(v); err != nil {
			t.Fatal(err)
		}
	}
	got, cost, err = s.ReadBlock("f", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 3 {
		t.Fatalf("degraded read cost %d transfers, want 3", cost)
	}
	if !bytes.Equal(got, data[:blockSize]) {
		t.Fatal("degraded read wrong")
	}
}

func TestReadBlockValidation(t *testing.T) {
	s := newStore(t, "pentagon")
	if err := s.Put("f", randomFile(t, blockSize*9, 21)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ReadBlock("nope", 0, 0); err == nil {
		t.Fatal("read of missing file")
	}
	if _, _, err := s.ReadBlock("f", 5, 0); err == nil {
		t.Fatal("read of out-of-range stripe")
	}
	if _, _, err := s.ReadBlock("f", 0, 9); err == nil {
		t.Fatal("read of parity symbol")
	}
}

func TestReadBlockRAIDMDegradedCostsNine(t *testing.T) {
	s := newStore(t, "raid+m-10-9")
	data := randomFile(t, blockSize*9, 22)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	for _, v := range s.Code().Placement().SymbolNodes[0] {
		if err := s.KillNode(v); err != nil {
			t.Fatal(err)
		}
	}
	got, cost, err := s.ReadBlock("f", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 9 {
		t.Fatalf("RAID+m degraded read cost %d, want 9", cost)
	}
	if !bytes.Equal(got, data[:blockSize]) {
		t.Fatal("RAID+m degraded read wrong")
	}
}

// blockPath is the path of one replica of a never-moved file of a store
// created without extents.
func (s *Store) blockPath(v int, name string, stripe, sym int) string {
	return filepath.Join(s.nodeDir(v), blockName(name, false, 0, 0, stripe, sym))
}

// TestRepairHotFilesFirst: with the Heat hook set, Repair rebuilds hot
// files before cold ones — so when a cold file turns out to be
// unrepairable mid-pass, the hot file has already regained its
// replicas. Without heat the alphabetical order dies on the cold file
// first. Repair fans files out over GOMAXPROCS workers, so the test
// runs at GOMAXPROCS 1: dispatch order is then completion order, and
// what got repaired before the pass died reads the order off directly.
func TestRepairHotFilesFirst(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cold := randomFile(t, 6*blockSize, 80)
	hot := randomFile(t, 6*blockSize, 81)
	// damaged builds a store whose cold file is unrepairable: node 1
	// dead plus three more of its stripe-0 symbols gone is past the
	// code's tolerance.
	damaged := func() *Store {
		s := newStore(t, "rs-9-6")
		if err := s.Put("a-cold", cold); err != nil {
			t.Fatal(err)
		}
		if err := s.Put("b-hot", hot); err != nil {
			t.Fatal(err)
		}
		if err := s.KillNode(1); err != nil {
			t.Fatal(err)
		}
		for _, v := range []int{2, 3, 4} {
			for _, sym := range s.code.Placement().NodeSymbols[v] {
				if err := os.Remove(s.blockPath(v, "a-cold", 0, sym)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s
	}
	// hotBlocksRestored counts b-hot's node-1 replicas back on disk.
	hotBlocksRestored := func(s *Store) (restored, want int) {
		fi, _ := s.Info("b-hot")
		for _, sym := range s.code.Placement().NodeSymbols[1] {
			for i := 0; i < fi.Stripes; i++ {
				want++
				if _, err := os.Stat(s.blockPath(1, "b-hot", i, sym)); err == nil {
					restored++
				}
			}
		}
		return restored, want
	}

	s := damaged()
	s.Heat = func(name string, _ int) float64 {
		if name == "b-hot" {
			return 10
		}
		return 1
	}
	if _, err := s.Repair([]int{1}); err == nil {
		t.Fatal("repair of the damaged cold file succeeded")
	}
	// Dispatch order b-hot, a-cold: the hot file was fully repaired
	// before the pass died on the cold one.
	if restored, want := hotBlocksRestored(s); restored != want {
		t.Fatalf("hot file not repaired first: %d of %d blocks restored", restored, want)
	}
	got, err := s.Get("b-hot")
	if err != nil || !bytes.Equal(got, hot) {
		t.Fatalf("hot file wrong after hot-first repair (%v)", err)
	}

	// Without heat the order is alphabetical — a-cold, b-hot — so the
	// pass dies before b-hot is dispatched at all.
	s2 := damaged()
	if _, err := s2.Repair([]int{1}); err == nil {
		t.Fatal("repair of the damaged cold file succeeded")
	}
	if restored, _ := hotBlocksRestored(s2); restored != 0 {
		t.Fatalf("heatless repair restored %d hot blocks before dying on the cold file", restored)
	}
}

// TestOpenIgnoresLeftoverTuneJSON: the per-store calibration file
// earlier versions wrote (`hdfscli tune`) is never read. A store whose
// directory holds one — valid for some machine, stale for any, or
// garbage — opens, puts and gets like one that never had it, down to
// the bytes of its manifest, and the file is left as it was.
func TestOpenIgnoresLeftoverTuneJSON(t *testing.T) {
	data := randomFile(t, 7*blockSize+100, 90)
	// run creates a store, drops leftover beside its manifest, reopens
	// it and serves a Put and a Get; it returns the manifest's bytes.
	run := func(leftover string) []byte {
		dir := t.TempDir()
		if _, err := Create(dir, "rs-9-6", blockSize); err != nil {
			t.Fatal(err)
		}
		if leftover != "" {
			if err := os.WriteFile(filepath.Join(dir, "tune.json"), []byte(leftover), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open beside tune.json %q: %v", leftover, err)
		}
		if err := s.Put("f", data); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Get("f"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get beside tune.json %q: err %v", leftover, err)
		}
		if leftover != "" {
			if kept, err := os.ReadFile(filepath.Join(dir, "tune.json")); err != nil || string(kept) != leftover {
				t.Fatalf("tune.json %q was touched: now %q, err %v", leftover, kept, err)
			}
		}
		var manifest []byte
		for _, name := range []string{"manifest.json", "manifest.log"} {
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			manifest = append(manifest, raw...)
		}
		return manifest
	}
	want := run("")
	for _, leftover := range []string{
		`{"kernel":"gfni","max_procs":1,"move_workers":1,"codes":{"rs-9-6":{"encode_workers":1,"decode_workers":1}}}`,
		`{"kernel":"neon","max_procs":4096,"move_workers":64,"codes":{"rs-9-6":{"encode_workers":64,"decode_workers":64}}}`,
		"\x00not json{",
	} {
		if got := run(leftover); !bytes.Equal(got, want) {
			t.Errorf("manifest beside tune.json %q differs from a store that never had one:\n%s\nwant:\n%s", leftover, got, want)
		}
	}
}
