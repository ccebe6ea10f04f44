package polygon

// Exhaustive structural and repair tests for K_n beyond the paper's
// two instances: the construction generalizes to any n >= 3, and these
// tests pin the invariants for the neighbouring sizes a user might
// instantiate via New.

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
)

func TestGenericShapes(t *testing.T) {
	for _, n := range []int{3, 4, 6, 8, 9} {
		c := New(n)
		e := n * (n - 1) / 2
		if c.Symbols() != e || c.DataSymbols() != e-1 {
			t.Errorf("K%d: symbols=%d data=%d", n, c.Symbols(), c.DataSymbols())
		}
		if got := c.Placement().TotalBlocks(); got != 2*e {
			t.Errorf("K%d stores %d blocks, want %d", n, got, 2*e)
		}
		wantOverhead := 2 * float64(e) / float64(e-1)
		if so := core.StorageOverhead(c); so < wantOverhead-1e-9 || so > wantOverhead+1e-9 {
			t.Errorf("K%d overhead = %v, want %v", n, so, wantOverhead)
		}
	}
}

// TestGenericDecodeAndRepair runs the full erasure/repair matrix for
// K4, K6 and K9.
func TestGenericDecodeAndRepair(t *testing.T) {
	for _, n := range []int{4, 6, 9} {
		c := New(n)
		rng := rand.New(rand.NewSource(int64(n)))
		data := make([][]byte, c.DataSymbols())
		for i := range data {
			data[i] = make([]byte, 24)
			rng.Read(data[i])
		}
		symbols, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		for f1 := 0; f1 < n; f1++ {
			for f2 := f1 + 1; f2 < n; f2++ {
				nc := core.MaterializeNodes(c, symbols)
				nc.Erase(f1, f2)
				decoded, err := c.Decode(nc.Available(c.Symbols()))
				if err != nil {
					t.Fatalf("K%d decode after %d,%d: %v", n, f1, f2, err)
				}
				for i := range data {
					if !bytes.Equal(decoded[i], data[i]) {
						t.Fatalf("K%d block %d wrong", n, i)
					}
				}
				plan, err := c.PlanRepair([]int{f1, f2})
				if err != nil {
					t.Fatal(err)
				}
				if plan.Bandwidth() != 3*(n-2)+1 {
					t.Fatalf("K%d double repair bandwidth %d, want %d", n, plan.Bandwidth(), 3*(n-2)+1)
				}
				nc2 := core.MaterializeNodes(c, symbols)
				nc2.Erase(f1, f2)
				if err := core.ExecuteRepair(nc2, plan, 24); err != nil {
					t.Fatalf("K%d repair %d,%d: %v", n, f1, f2, err)
				}
				for v := range nc2 {
					for _, s := range c.Placement().NodeSymbols[v] {
						if !bytes.Equal(nc2[v][s], symbols[s]) {
							t.Fatalf("K%d node %d symbol %d wrong after repair", n, v, s)
						}
					}
				}
			}
		}
	}
}

// TestTriangle is the degenerate smallest member: K3 has 3 symbols
// (2 data + parity), each replicated on 2 of 3 nodes.
func TestTriangle(t *testing.T) {
	c := New(3)
	data := [][]byte{{1, 2}, {3, 4}}
	symbols, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(symbols[2], xorOf(data...)) {
		t.Fatal("K3 parity wrong")
	}
	// One node failure: repair by transfer, 2 copies.
	plan, err := c.PlanRepair([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bandwidth() != 2 {
		t.Fatalf("K3 single repair = %d, want 2", plan.Bandwidth())
	}
	// Two node failures leave one node with 2 of 3 symbols: decodable.
	nc := core.MaterializeNodes(c, symbols)
	nc.Erase(0, 1)
	decoded, err := c.Decode(nc.Available(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(decoded[i], data[i]) {
			t.Fatal("K3 decode wrong")
		}
	}
}

func TestNewRejectsTooSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(2) did not panic")
		}
	}()
	New(2)
}
