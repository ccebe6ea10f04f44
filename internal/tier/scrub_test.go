package tier

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tier/accesslog"
)

// fakeScrubber records the byte grants the daemon hands it and
// pretends to read up to perCall bytes of each.
type fakeScrubber struct {
	grants  []int64
	perCall int64
	err     error
}

func (f *fakeScrubber) Scrub(maxBytes int64) (int64, error) {
	f.grants = append(f.grants, maxBytes)
	used := f.perCall
	if used > maxBytes {
		used = maxBytes
	}
	return used, f.err
}

// TestDaemonScrubLeftoverBudget: with no moves pending, scrubbing gets
// min(ScrubPerScan, bucket balance) per scan, the bytes it reads are
// debited from the shared bucket, and a drained bucket pauses
// scrubbing entirely.
func TestDaemonScrubLeftoverBudget(t *testing.T) {
	d, err := NewDaemon(newFakeTarget(1, nil), testPolicy(), NewTracker(100), DaemonConfig{
		Interval: 1, BytesPerSec: 1, Burst: 100, BlockBytes: 1, ScrubPerScan: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := &fakeScrubber{perCall: 1 << 30}
	d.Scrub = sc
	// Three scans at one instant: the full 100-byte bucket funds grants
	// of 40, 40, then the 20 remaining; the fourth scan finds less than
	// one block of budget and skips the scrubber.
	for i := 0; i < 4; i++ {
		if _, err := d.Tick(100); err != nil {
			t.Fatal(err)
		}
	}
	want := []int64{40, 40, 20}
	if len(sc.grants) != len(want) {
		t.Fatalf("scrub grants = %v, want %v", sc.grants, want)
	}
	for i, g := range want {
		if sc.grants[i] != g {
			t.Fatalf("scrub grants = %v, want %v", sc.grants, want)
		}
	}
	if st := d.Stats(); st.ScrubbedBytes != 100 {
		t.Fatalf("ScrubbedBytes = %v, want 100", st.ScrubbedBytes)
	}
}

// TestDaemonScrubNeverStarvesMoves reuses the one-move-per-tick budget
// shape: every scan's tokens go to the admitted move, so the scrubber
// — asking for the same 10 bytes — must never run until the moves are
// done, and must get the leftovers afterwards.
func TestDaemonScrubNeverStarvesMoves(t *testing.T) {
	ft := newFakeTarget(10, map[string]string{
		"cool": "rs-14-10", "warm": "rs-14-10", "blazing": "rs-14-10",
	})
	tr := NewTracker(0)
	tr.TouchExtentN("cool", 0, 10, 0)
	tr.TouchExtentN("warm", 0, 20, 0)
	tr.TouchExtentN("blazing", 0, 30, 0)
	d, err := NewDaemon(ft, testPolicy(), tr, DaemonConfig{
		Interval: 10, BytesPerSec: 1, Burst: 10, BlockBytes: 1, ScrubPerScan: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := &fakeScrubber{perCall: 1 << 30}
	d.Scrub = sc
	for _, now := range []float64{10, 20, 30} {
		if _, err := d.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	if len(sc.grants) != 0 {
		t.Fatalf("scrubber ran during move backlog: grants %v", sc.grants)
	}
	if st := d.Stats(); st.Moves != 3 {
		t.Fatalf("moves = %d, want 3", st.Moves)
	}
	// Moves done; the next scan's refill belongs to the scrubber.
	if _, err := d.Tick(40); err != nil {
		t.Fatal(err)
	}
	if len(sc.grants) != 1 || sc.grants[0] != 10 {
		t.Fatalf("post-backlog scrub grants = %v, want [10]", sc.grants)
	}
}

// TestDaemonScrubUnlimited: without a rate limit the scrubber gets
// exactly ScrubPerScan every scan, and its errors land in the daemon's
// error stats without stopping the loop.
func TestDaemonScrubUnlimited(t *testing.T) {
	d, err := NewDaemon(newFakeTarget(1, nil), testPolicy(), NewTracker(100), DaemonConfig{Interval: 1, ScrubPerScan: 25})
	if err != nil {
		t.Fatal(err)
	}
	sc := &fakeScrubber{perCall: 5, err: fmt.Errorf("latent sector")}
	d.Scrub = sc
	for i := 0; i < 3; i++ {
		if _, err := d.Tick(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(sc.grants) != 3 || sc.grants[0] != 25 {
		t.Fatalf("grants = %v, want three grants of 25", sc.grants)
	}
	st := d.Stats()
	if st.ScrubbedBytes != 15 {
		t.Fatalf("ScrubbedBytes = %v, want 15", st.ScrubbedBytes)
	}
	if st.Errors != 3 || d.Err() == nil {
		t.Fatalf("errors = %d (lastErr %v), want 3 recorded scrub errors", st.Errors, d.Err())
	}
}

// TestSidecarSavesAtomic: the heat snapshot is written through
// durable.WriteFile, so stray garbage at the temp path (the residue of a
// crashed save) neither corrupts the file nor breaks the next save, and
// loads see only complete states.
func TestSidecarSavesAtomic(t *testing.T) {
	dir := t.TempDir()

	heat := filepath.Join(dir, heatFileName)
	reopened := func() float64 {
		t.Helper()
		h, err := OpenHeatLog(dir, 100, accesslog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		return h.Tracker().Heat("f", 0)
	}
	hl, err := OpenHeatLog(dir, 100, accesslog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer hl.Close()
	compactAfterTouches := func() error {
		for i := 0; i < 5; i++ {
			if err := hl.TouchExtent("f", 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		return hl.Compact()
	}
	if err := compactAfterTouches(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-checkpoint leaves a truncated temp file; the committed
	// snapshot must be untouched and the next checkpoint must still work.
	if err := os.WriteFile(heat+".tmp", []byte("{\"half_"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := reopened(); got != 5 {
		t.Fatalf("heat after crash residue = %v, want 5", got)
	}
	if err := compactAfterTouches(); err != nil {
		t.Fatalf("checkpoint over crash residue: %v", err)
	}
	if got := reopened(); got != 10 {
		t.Fatalf("heat after the next checkpoint = %v, want 10", got)
	}
	// A checkpoint that fails before its rename leaves the committed
	// snapshot untouched — and the heat in the log it did not fold.
	committed, err := os.ReadFile(heat)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(heat+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := compactAfterTouches(); err == nil {
		t.Fatal("checkpoint succeeded with an unwritable temp path")
	}
	if after, err := os.ReadFile(heat); err != nil || !bytes.Equal(after, committed) {
		t.Fatalf("failed checkpoint changed the committed snapshot (err %v)", err)
	}
	if got := reopened(); got != 15 {
		t.Fatalf("heat after the failed checkpoint = %v, want 15", got)
	}
}
