package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(3, func() { order = append(order, 3) })
	e.At(1, func() { order = append(order, 1) })
	e.At(2, func() { order = append(order, 2) })
	end := e.Run()
	if end != 3 {
		t.Fatalf("final clock = %v, want 3", end)
	}
	if !sort.IntsAreSorted(order) || len(order) != 3 {
		t.Fatalf("events out of order: %v", order)
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(1, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break wrong: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(1, func() {
		e.After(1, func() { fired++ })
		e.After(2, func() { fired++ })
	})
	end := e.Run()
	if fired != 2 || end != 3 {
		t.Fatalf("fired=%d end=%v", fired, end)
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	e.At(1, func() {})
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestEngineMonotonicClockProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		last := -1.0
		ok := true
		for i := 0; i < 50; i++ {
			e.At(rng.Float64()*100, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNetworkSingleTransferLatency(t *testing.T) {
	e := NewEngine()
	nw := NewNetwork(e, 2, 100) // 100 B/s
	var done float64 = -1
	nw.Transfer(0, 1, 200, func() { done = e.Now() })
	e.Run()
	// 200 B at 100 B/s through uplink then downlink: 2 + 2 = 4 s.
	if math.Abs(done-4) > 1e-9 {
		t.Fatalf("transfer completed at %v, want 4", done)
	}
	if nw.TotalBytes() != 200 {
		t.Fatalf("total bytes = %v", nw.TotalBytes())
	}
	if nw.Transfers() != 1 {
		t.Fatalf("transfers = %d", nw.Transfers())
	}
}

func TestNetworkUplinkSerialization(t *testing.T) {
	e := NewEngine()
	nw := NewNetwork(e, 3, 100)
	var t1, t2 float64
	nw.Transfer(0, 1, 100, func() { t1 = e.Now() })
	nw.Transfer(0, 2, 100, func() { t2 = e.Now() })
	e.Run()
	// Second transfer waits for the shared uplink: starts at 1, ends 3.
	if math.Abs(t1-2) > 1e-9 || math.Abs(t2-3) > 1e-9 {
		t.Fatalf("t1=%v t2=%v, want 2 and 3", t1, t2)
	}
}

func TestNetworkDownlinkSerialization(t *testing.T) {
	e := NewEngine()
	nw := NewNetwork(e, 3, 100)
	var t1, t2 float64
	nw.Transfer(0, 2, 100, func() { t1 = e.Now() })
	nw.Transfer(1, 2, 100, func() { t2 = e.Now() })
	e.Run()
	// Both uplinks run in parallel (end at 1); node 2's downlink
	// serializes: 2 and 3.
	if math.Abs(t1-2) > 1e-9 || math.Abs(t2-3) > 1e-9 {
		t.Fatalf("t1=%v t2=%v, want 2 and 3", t1, t2)
	}
}

func TestNetworkLocalTransferFree(t *testing.T) {
	e := NewEngine()
	nw := NewNetwork(e, 2, 100)
	fired := false
	nw.Transfer(1, 1, 1e9, func() { fired = true })
	end := e.Run()
	if !fired || end != 0 {
		t.Fatalf("local transfer fired=%v end=%v", fired, end)
	}
	if nw.TotalBytes() != 0 {
		t.Fatal("local transfer counted network bytes")
	}
}

func TestNetworkOffClusterEndpoint(t *testing.T) {
	e := NewEngine()
	nw := NewNetwork(e, 2, 100)
	var done float64
	nw.Transfer(-1, 1, 100, func() { done = e.Now() })
	e.Run()
	if math.Abs(done-2) > 1e-9 {
		t.Fatalf("off-cluster transfer done at %v, want 2", done)
	}
}

func TestNetworkByteConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		nw := NewNetwork(e, 5, 50)
		want := 0.0
		for i := 0; i < 30; i++ {
			from := rng.Intn(5)
			to := rng.Intn(5)
			b := float64(rng.Intn(1000))
			if from != to {
				want += b
			}
			nw.Transfer(from, to, b, func() {})
		}
		e.Run()
		return math.Abs(nw.TotalBytes()-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNetworkInvalidBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNetwork(NewEngine(), 2, 0)
}

// TestTransferPaced: a chunked bulk stream injects every chunk at
// once, so it monopolizes the uplink and a foreground transfer queues
// behind the whole burst.
func TestTransferPaced(t *testing.T) {
	eng := NewEngine()
	nw := NewNetwork(eng, 2, 100) // 100 B/s per NIC direction
	var fgDone float64
	nw.TransferChunked(0, 1, 400, 100, func() {})
	eng.At(2, func() {
		nw.Transfer(0, 1, 100, func() { fgDone = eng.Now() })
	})
	eng.Run()
	// Four 1 s chunks hold the uplink through t=4; the foreground
	// transfer goes up over [4,5) and down over [5,6).
	if fgDone != 6 {
		t.Fatalf("foreground read done at %v, want 6 (queued behind the burst)", fgDone)
	}
}

// TestTransferPacedEdges covers the degenerate chunked-transfer inputs.
func TestTransferPacedEdges(t *testing.T) {
	eng := NewEngine()
	nw := NewNetwork(eng, 2, 100)
	done := 0
	nw.TransferChunked(0, 1, 0, 100, func() { done++ })   // zero bytes
	nw.TransferChunked(0, 1, 50, 0, func() { done++ })    // chunk defaults to bytes
	nw.TransferChunked(0, 1, 250, 100, func() { done++ }) // ragged tail chunk
	eng.Run()
	if done != 3 {
		t.Fatalf("done callbacks = %d, want 3", done)
	}
	if nw.TotalBytes() != 300 {
		t.Fatalf("total bytes = %v, want 300", nw.TotalBytes())
	}
}
