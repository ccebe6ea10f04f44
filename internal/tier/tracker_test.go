package tier

import (
	"math"
	"sync"
	"testing"
)

func TestTrackerTouchAndDecay(t *testing.T) {
	tr := NewTracker(10) // halve every 10 s
	tr.TouchExtent("f", 0, 0)
	tr.TouchExtent("f", 0, 0)
	if h := tr.Heat("f", 0); h != 2 {
		t.Fatalf("heat = %v, want 2", h)
	}
	if h := tr.Heat("f", 10); math.Abs(h-1) > 1e-12 {
		t.Fatalf("heat after one half-life = %v, want 1", h)
	}
	if h := tr.Heat("f", 30); math.Abs(h-0.25) > 1e-12 {
		t.Fatalf("heat after three half-lives = %v, want 0.25", h)
	}
	// A touch folds the decay in before incrementing.
	tr.TouchExtent("f", 0, 10)
	if h := tr.Heat("f", 10); math.Abs(h-2) > 1e-12 {
		t.Fatalf("heat after decayed touch = %v, want 2", h)
	}
}

func TestTrackerNoDecay(t *testing.T) {
	tr := NewTracker(0)
	tr.TouchExtent("f", 0, 0)
	if h := tr.Heat("f", 1e9); h != 1 {
		t.Fatalf("undecayed heat = %v, want 1", h)
	}
}

func TestTrackerUnknownFile(t *testing.T) {
	tr := NewTracker(10)
	if h := tr.Heat("nope", 5); h != 0 {
		t.Fatalf("unknown file heat = %v", h)
	}
}

func TestTrackerConcurrent(t *testing.T) {
	tr := NewTracker(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.TouchExtent("shared", 0, float64(i))
				tr.Heat("shared", float64(i))
			}
		}()
	}
	wg.Wait()
	if h := tr.Heat("shared", 1000); h != 8000 {
		t.Fatalf("concurrent heat = %v, want 8000", h)
	}
}

// TestTrackerExtentHeat: extent touches accrue per extent, file heat
// aggregates them, and decay applies per counter.
func TestTrackerExtentHeat(t *testing.T) {
	tr := NewTracker(10)
	tr.TouchExtentN("f", 0, 4, 0)
	tr.TouchExtent("f", 2, 0)
	if h := tr.ExtentHeat("f", 0, 0); h != 4 {
		t.Fatalf("extent 0 heat = %v, want 4", h)
	}
	if h := tr.ExtentHeat("f", 1, 0); h != 0 {
		t.Fatalf("untouched extent heat = %v", h)
	}
	if h := tr.Heat("f", 0); h != 5 {
		t.Fatalf("file heat = %v, want extent sum 5", h)
	}
	tr.TouchExtentN("f", 2, 2, 10)
	if h := tr.ExtentHeat("f", 0, 10); math.Abs(h-2) > 1e-12 {
		t.Fatalf("decayed extent heat = %v, want 2", h)
	}
	if h := tr.ExtentHeat("f", 2, 10); math.Abs(h-2.5) > 1e-12 {
		t.Fatalf("decayed-then-touched extent heat = %v, want 2.5", h)
	}
}

// TestTrackerExtentSaveLoad round-trips extent counters and the
// generation through the snapshot form.
func TestTrackerExtentSaveLoad(t *testing.T) {
	tr := NewTracker(10)
	tr.TouchExtentN("f", 3, 4, 100)
	tr.TouchExtentN("f", 0, 1, 100)
	raw, err := tr.snapshot(3)
	if err != nil {
		t.Fatal(err)
	}
	tr2, gen, err := restoreTracker(raw, 99)
	if err != nil || gen != 3 {
		t.Fatalf("restored generation %d, %v; want 3", gen, err)
	}
	if h := tr2.ExtentHeat("f", 3, 100); h != 4 {
		t.Fatalf("restored extent heat = %v, want 4", h)
	}
	if h := tr2.Heat("f", 100); h != 5 {
		t.Fatalf("restored file heat = %v, want 5", h)
	}
}

func TestTrackerSaveLoad(t *testing.T) {
	tr := NewTracker(10)
	tr.TouchExtentN("f", 0, 4, 100)
	raw, err := tr.snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	tr2, _, err := restoreTracker(raw, 99)
	if err != nil {
		t.Fatal(err)
	}
	if h := tr2.Heat("f", 100); h != 4 {
		t.Fatalf("restored heat = %v, want 4", h)
	}
	// Half-life persisted with the state, not taken from the argument.
	if h := tr2.Heat("f", 110); math.Abs(h-2) > 1e-12 {
		t.Fatalf("restored decay = %v, want 2", h)
	}
	if _, _, err := restoreTracker([]byte(`{"half_`), 99); err == nil {
		t.Fatal("a torn snapshot restored")
	}
}

// TestLoadTrackerMissingFile: with no snapshot yet the tracker starts
// empty, on the caller's half-life.
func TestLoadTrackerMissingFile(t *testing.T) {
	tr, gen, err := restoreTracker(nil, 7)
	if err != nil || gen != 0 {
		t.Fatalf("generation %d, %v; want 0", gen, err)
	}
	if tr.Len() != 0 {
		t.Fatal("fresh tracker not empty")
	}
	tr.TouchExtentN("f", 0, 2, 0)
	if h := tr.Heat("f", 7); math.Abs(h-1) > 1e-12 {
		t.Fatalf("heat one half-life on = %v, want 1", h)
	}
}
