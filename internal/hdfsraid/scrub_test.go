package hdfsraid

import (
	"bytes"
	"testing"

	"repro/internal/block"
)

// TestScrubTrickleBudget verifies the cursor arithmetic: a budget of N
// frames scans at most N blocks per call, successive calls resume
// where the last stopped, and a full circuit reports Wrapped.
func TestScrubTrickleBudget(t *testing.T) {
	s := newStore(t, "rs-9-6")
	data := randomFile(t, 2*blockSize*s.Code().DataSymbols(), 60)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	fsck, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	total := fsck.Blocks // every replica the store expects
	frame := int64(block.FrameSize(blockSize))

	scanned := 0
	calls := 0
	for scanned < total {
		rep, err := s.Scrub(3 * frame)
		if err != nil {
			t.Fatal(err)
		}
		if rep.BlocksScanned < 1 || rep.BlocksScanned > 3 {
			t.Fatalf("call scanned %d blocks, want 1..3", rep.BlocksScanned)
		}
		if rep.CorruptFound+rep.MissingFound != 0 {
			t.Fatalf("clean store reported errors: %+v", rep)
		}
		if rep.Wrapped {
			t.Fatalf("a %d-block call of %d total claimed full coverage", rep.BlocksScanned, total)
		}
		scanned += rep.BlocksScanned
		calls++
	}
	if calls < total/3 {
		t.Fatalf("full coverage took %d calls for %d blocks at 3/call", calls, total)
	}
	// An unbudgeted pass covers everything in one call.
	rep, err := s.Scrub(0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Wrapped || rep.BlocksScanned != total {
		t.Fatalf("full pass = %+v, want all %d blocks", rep, total)
	}
}

// TestScrubFindsAndHeals: latent corruption in two different stripes
// is found by trickle passes and healed in place — the reads never
// tripped over it, the scrubber did. On the extent store the second
// corrupt block (file stripe 1) sits in extent 1, local stripe 0.
func TestScrubFindsAndHeals(t *testing.T) {
	t.Run("whole-file", func(t *testing.T) { testScrubFindsAndHeals(t, newStore(t, "rs-9-6")) })
	t.Run("extents", func(t *testing.T) { testScrubFindsAndHeals(t, newExtStore(t, "rs-9-6", 6)) })
	t.Run("pentagon-parity", testHealParityFromSibling)
}

// testHealParityFromSibling: a corrupt replica of pentagon's parity
// heals by copying its sibling replica, so the heal reads two frames —
// the re-verify of the bad one and the sibling — not the k data blocks
// a re-encode would.
func testHealParityFromSibling(t *testing.T) {
	s := newStore(t, "pentagon")
	k := s.Code().DataSymbols()
	data := randomFile(t, blockSize*k, 63)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	v := s.Code().Placement().SymbolNodes[k][0]
	if err := s.CorruptBlock(v, "f", 0, k); err != nil {
		t.Fatal(err)
	}
	fi := s.manifest.Files["f"]
	cc, err := s.codecByName(fi.Extents[0].Code)
	if err != nil {
		t.Fatal(err)
	}
	before := s.obs.counters[cBlockReadBytes].Value()
	if err := s.healBlock(cc, "f", fi, 0, 0, k, v, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := s.obs.counters[cBlockReadBytes].Value()-before, int64(2*block.FrameSize(blockSize)); got != want {
		t.Fatalf("parity heal read %d bytes, want %d (two frames)", got, want)
	}
	rep, err := s.Scrub(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptFound+rep.MissingFound != 0 {
		t.Fatalf("scrub after the heal: %+v, want nothing found", rep)
	}
	if got, err := s.Get("f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after the heal: err %v", err)
	}
}

func testScrubFindsAndHeals(t *testing.T, s *Store) {
	data := randomFile(t, 3*blockSize*s.Code().DataSymbols(), 61)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	if err := s.CorruptBlock(2, "f", 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.CorruptBlock(4, "f", 1, 4); err != nil {
		t.Fatal(err)
	}

	// Trickle until the cursor has made one full circuit; the two bad
	// frames must be healed along the way.
	fsck, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	healed, scanned := 0, 0
	frame := int64(block.FrameSize(blockSize))
	for scanned < fsck.Blocks {
		rep, err := s.Scrub(5 * frame)
		if err != nil {
			t.Fatal(err)
		}
		healed += rep.Healed
		scanned += rep.BlocksScanned
		if rep.Unrepairable != 0 {
			t.Fatalf("unrepairable in a 2-error store: %+v", rep)
		}
	}
	if healed != 2 {
		t.Fatalf("healed %d blocks, want 2", healed)
	}
	fsck, err = s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !fsck.Healthy() {
		t.Fatalf("store not healthy after scrub: %+v", fsck)
	}
	if got, err := s.Get("f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-scrub read: err %v", err)
	}
	if q, _ := s.Quarantined(); len(q) != 2 {
		t.Fatalf("quarantined frames = %d, want 2", len(q))
	}
	if s.obs.counters[cScrubFound].Value() != 2 || s.obs.counters[cScrubHealed].Value() != 2 {
		t.Fatalf("scrub counters found=%d healed=%d, want 2/2",
			s.obs.counters[cScrubFound].Value(), s.obs.counters[cScrubHealed].Value())
	}
	if s.obs.counters[cScrubBytes].Value() == 0 || s.obs.counters[cScrubBlocks].Value() == 0 {
		t.Fatal("scrub byte/block counters stayed zero")
	}
}

// TestScrubUnrepairable: a stripe beyond the code's tolerance is
// reported, not silently dropped — and the corrupt frames stay on disk
// for a future repair instead of vanishing into quarantine.
func TestScrubUnrepairable(t *testing.T) {
	s := newStore(t, "rs-9-6")
	data := randomFile(t, blockSize*s.Code().DataSymbols(), 62)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ { // tolerance is 3
		if err := s.CorruptBlock(v, "f", 0, v); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Scrub(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptFound != 4 || rep.Unrepairable != 4 || rep.Healed != 0 {
		t.Fatalf("report = %+v, want 4 found, 4 unrepairable", rep)
	}
	if s.obs.counters[cScrubUnrepairable].Value() != 4 {
		t.Fatalf("unrepairable counter = %d, want 4", s.obs.counters[cScrubUnrepairable].Value())
	}
	// Every corrupt frame restored, none lost to quarantine.
	if q, _ := s.Quarantined(); len(q) != 0 {
		t.Fatalf("unrepairable frames left in quarantine: %v", q)
	}
	fsck, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if fsck.Corrupt != 4 {
		t.Fatalf("fsck sees %d corrupt frames, want the original 4", fsck.Corrupt)
	}
}
