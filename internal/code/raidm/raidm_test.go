package raidm

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gf256"
)

const testBlockSize = 32

func encoded(t *testing.T, c *Code, seed int64) ([][]byte, [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([][]byte, c.DataSymbols())
	for i := range data {
		data[i] = make([]byte, testBlockSize)
		rng.Read(data[i])
	}
	symbols, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	return data, symbols
}

func TestShape(t *testing.T) {
	c := New(9)
	if c.Name() != "(10,9) RAID+m" {
		t.Errorf("name = %q", c.Name())
	}
	if c.DataSymbols() != 9 || c.Symbols() != 10 || c.Nodes() != 20 {
		t.Errorf("bad shape: k=%d s=%d n=%d", c.DataSymbols(), c.Symbols(), c.Nodes())
	}
	if got := c.Placement().TotalBlocks(); got != 20 {
		t.Errorf("stores %d blocks, want 20", got)
	}
	if so := core.StorageOverhead(c); so < 2.221 || so > 2.223 {
		t.Errorf("overhead = %.3f, want 2.22", so)
	}
	c11 := New(11)
	if so := core.StorageOverhead(c11); so < 2.17 || so > 2.19 {
		t.Errorf("(12,11) overhead = %.3f, want 2.18", so)
	}
	if err := core.VerifyPlacement(c); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeParity(t *testing.T) {
	c := New(9)
	data, symbols := encoded(t, c, 1)
	if !bytes.Equal(symbols[9], xorOf(data...)) {
		t.Fatal("parity wrong")
	}
}

// TestDecodeAllTripleNodeErasures verifies fault tolerance 3
// exhaustively: every C(20,3) = 1140 node-failure pattern decodes.
func TestDecodeAllTripleNodeErasures(t *testing.T) {
	c := New(9)
	data, symbols := encoded(t, c, 2)
	n := c.Nodes()
	for f1 := 0; f1 < n; f1++ {
		for f2 := f1 + 1; f2 < n; f2++ {
			for f3 := f2 + 1; f3 < n; f3++ {
				nc := core.MaterializeNodes(c, symbols)
				nc.Erase(f1, f2, f3)
				decoded, err := c.Decode(nc.Available(c.Symbols()))
				if err != nil {
					t.Fatalf("decode after %d,%d,%d: %v", f1, f2, f3, err)
				}
				for i := range data {
					if !bytes.Equal(decoded[i], data[i]) {
						t.Fatalf("block %d wrong after %d,%d,%d", i, f1, f2, f3)
					}
				}
			}
		}
	}
}

func TestDecodeFailsWhenTwoSymbolsLost(t *testing.T) {
	c := New(9)
	_, symbols := encoded(t, c, 3)
	nc := core.MaterializeNodes(c, symbols)
	nc.Erase(0, 1, 2, 3) // both replicas of symbols 0 and 1
	if _, err := c.Decode(nc.Available(c.Symbols())); err == nil {
		t.Fatal("decode succeeded with two symbols fully lost")
	}
}

func TestRepairMirrorCopy(t *testing.T) {
	c := New(9)
	_, symbols := encoded(t, c, 4)
	plan, err := c.PlanRepair([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bandwidth() != 1 || len(plan.Transfers[0].Terms) != 1 || plan.Transfers[0].Terms[0].Coeff != 1 {
		t.Fatalf("single node repair should be one copy, got %v", plan.Transfers)
	}
	nc := core.MaterializeNodes(c, symbols)
	nc.Erase(4)
	if err := core.ExecuteRepair(nc, plan, testBlockSize); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nc[4][2], symbols[2]) {
		t.Fatal("node 4 not restored")
	}
}

// TestRepairDoublyLostSymbol verifies the m-block reconstruction cost
// when a mirror pair fails: no partial parities exist in RAID+m.
func TestRepairDoublyLostSymbol(t *testing.T) {
	c := New(9)
	_, symbols := encoded(t, c, 5)
	plan, err := c.PlanRepair([]int{6, 7}) // both replicas of symbol 3
	if err != nil {
		t.Fatal(err)
	}
	// 9 block transfers to rebuild + 1 copy to the mirror.
	if plan.Bandwidth() != 10 {
		t.Fatalf("mirror-pair repair bandwidth = %d, want 10", plan.Bandwidth())
	}
	nc := core.MaterializeNodes(c, symbols)
	nc.Erase(6, 7)
	if err := core.ExecuteRepair(nc, plan, testBlockSize); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nc[6][3], symbols[3]) || !bytes.Equal(nc[7][3], symbols[3]) {
		t.Fatal("mirror pair not restored")
	}
}

func TestRepairAllTriplePatterns(t *testing.T) {
	c := New(9)
	_, symbols := encoded(t, c, 6)
	n := c.Nodes()
	for f1 := 0; f1 < n; f1++ {
		for f2 := f1 + 1; f2 < n; f2++ {
			for f3 := f2 + 1; f3 < n; f3++ {
				plan, err := c.PlanRepair([]int{f1, f2, f3})
				if err != nil {
					t.Fatalf("plan %d,%d,%d: %v", f1, f2, f3, err)
				}
				nc := core.MaterializeNodes(c, symbols)
				nc.Erase(f1, f2, f3)
				if err := core.ExecuteRepair(nc, plan, testBlockSize); err != nil {
					t.Fatalf("repair %d,%d,%d: %v", f1, f2, f3, err)
				}
				for v := 0; v < n; v++ {
					s := symbolOf(v)
					if !bytes.Equal(nc[v][s], symbols[s]) {
						t.Fatalf("node %d wrong after %d,%d,%d", v, f1, f2, f3)
					}
				}
			}
		}
	}
}

func TestRepairRejectsTwoFullLosses(t *testing.T) {
	c := New(9)
	if _, err := c.PlanRepair([]int{0, 1, 2, 3}); err == nil {
		t.Fatal("PlanRepair accepted two fully-lost symbols")
	}
}

// TestDegradedReadCostsM is the Section 3.1 comparison: a read of a
// doubly-lost block costs m = 9 transfers under (10,9) RAID+m, versus 3
// for the pentagon.
func TestDegradedReadCostsM(t *testing.T) {
	c := New(9)
	_, symbols := encoded(t, c, 7)
	nc := core.MaterializeNodes(c, symbols)
	nc.Erase(0, 1) // both replicas of symbol 0
	plan, err := c.PlanRead(0, []int{0, 1}, core.OffCluster)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bandwidth() != 9 {
		t.Fatalf("degraded read bandwidth = %d, want 9 (paper §3.1)", plan.Bandwidth())
	}
	got, err := core.ExecuteRead(nc, plan, core.OffCluster, testBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, symbols[0]) {
		t.Fatal("degraded read returned wrong data")
	}
}

func TestReadPaths(t *testing.T) {
	c := New(9)
	plan, err := c.PlanRead(2, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Local {
		t.Fatal("read at holder should be local")
	}
	plan, err = c.PlanRead(2, []int{4}, core.OffCluster)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bandwidth() != 1 || plan.Transfers[0].From != 5 {
		t.Fatal("read should copy from the surviving mirror")
	}
	if _, err := c.PlanRead(9, nil, 0); err == nil {
		t.Fatal("read accepted the parity symbol")
	}
	// Unrecoverable: the wanted symbol and another symbol both fully
	// down.
	if _, err := c.PlanRead(0, []int{0, 1, 2, 3}, core.OffCluster); err == nil {
		t.Fatal("read succeeded with two symbols down")
	}
}

func TestRegistry(t *testing.T) {
	c, err := core.New("raid+m-10-9")
	if err != nil {
		t.Fatal(err)
	}
	if c.DataSymbols() != 9 {
		t.Fatal("registry returned wrong code")
	}
	c, err = core.New("raid+m-12-11")
	if err != nil {
		t.Fatal(err)
	}
	if c.DataSymbols() != 11 {
		t.Fatal("registry returned wrong code")
	}
}

// xorOf is the XOR of blocks, the single parity a code's encode is
// checked against.
func xorOf(blocks ...[]byte) []byte {
	out := bytes.Clone(blocks[0])
	for _, b := range blocks[1:] {
		gf256.XorSlice(b, out)
	}
	return out
}
