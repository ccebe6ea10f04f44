package rs

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

const testBlockSize = 64

func encoded(t testing.TB, c *Code, seed int64) ([][]byte, [][]byte) {
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
	c := New(14, 10)
	if c.Name() != "(14,10) RS" {
		t.Errorf("name = %q", c.Name())
	}
	if c.DataSymbols() != 10 || c.Symbols() != 14 || c.Nodes() != 14 {
		t.Error("bad shape")
	}
	if c.FaultTolerance() != 4 {
		t.Errorf("tolerance = %d", c.FaultTolerance())
	}
	if so := core.StorageOverhead(c); so != 1.4 {
		t.Errorf("overhead = %v, want 1.4", so)
	}
	if err := core.VerifyPlacement(c); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidParamsPanic(t *testing.T) {
	for _, p := range [][2]int{{5, 5}, {4, 0}, {300, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", p[0], p[1])
				}
			}()
			New(p[0], p[1])
		}()
	}
}

func TestSystematic(t *testing.T) {
	c := New(9, 6)
	data, symbols := encoded(t, c, 1)
	for i := range data {
		if !bytes.Equal(symbols[i], data[i]) {
			t.Fatalf("not systematic at %d", i)
		}
	}
}

// TestDecodeAllFourErasures exhaustively decodes the (9,6) code from
// every erasure pattern up to the fault tolerance of 3.
func TestDecodeAllErasurePatterns(t *testing.T) {
	c := New(9, 6)
	data, symbols := encoded(t, c, 2)
	for f1 := 0; f1 < 9; f1++ {
		for f2 := f1 + 1; f2 < 9; f2++ {
			for f3 := f2 + 1; f3 < 9; f3++ {
				avail := cloneAll(symbols)
				avail[f1], avail[f2], avail[f3] = nil, nil, nil
				decoded, err := c.Decode(avail)
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

func TestDecodeBeyondToleranceFails(t *testing.T) {
	c := New(9, 6)
	_, symbols := encoded(t, c, 3)
	avail := cloneAll(symbols)
	for s := 0; s < 4; s++ {
		avail[s] = nil
	}
	if _, err := c.Decode(avail); err == nil {
		t.Fatal("decoded with only 5 of 6 needed symbols")
	}
}

func TestDecodeProperty(t *testing.T) {
	c := New(14, 10)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([][]byte, 10)
		for i := range data {
			data[i] = make([]byte, 32)
			rng.Read(data[i])
		}
		symbols, err := c.Encode(data)
		if err != nil {
			return false
		}
		avail := cloneAll(symbols)
		for _, s := range rng.Perm(14)[:4] {
			avail[s] = nil
		}
		decoded, err := c.Decode(avail)
		if err != nil {
			return false
		}
		for i := range data {
			if !bytes.Equal(decoded[i], data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestRepairCostsKTransfers verifies the intro's motivation: a single
// RS node repair moves k blocks (10 for (14,10)), versus the
// pentagon's pure-copy repair.
func TestRepairCostsKTransfers(t *testing.T) {
	c := New(14, 10)
	_, symbols := encoded(t, c, 4)
	for f := 0; f < 14; f++ {
		plan, err := c.PlanRepair([]int{f})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Bandwidth() > 10 || plan.Bandwidth() < 9 {
			// Some coefficients can be zero, shaving the odd transfer.
			t.Fatalf("single repair bandwidth = %d, want ~k = 10", plan.Bandwidth())
		}
		nc := core.MaterializeNodes(c, symbols)
		nc.Erase(f)
		if err := core.ExecuteRepair(nc, plan, testBlockSize); err != nil {
			t.Fatalf("repair of %d: %v", f, err)
		}
		if !bytes.Equal(nc[f][f], symbols[f]) {
			t.Fatalf("node %d not restored", f)
		}
	}
}

func TestRepairMaxErasures(t *testing.T) {
	c := New(9, 6)
	_, symbols := encoded(t, c, 5)
	plan, err := c.PlanRepair([]int{1, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	nc := core.MaterializeNodes(c, symbols)
	nc.Erase(1, 4, 8)
	if err := core.ExecuteRepair(nc, plan, testBlockSize); err != nil {
		t.Fatal(err)
	}
	for _, f := range []int{1, 4, 8} {
		if !bytes.Equal(nc[f][f], symbols[f]) {
			t.Fatalf("node %d not restored", f)
		}
	}
	if _, err := c.PlanRepair([]int{0, 1, 2, 3}); err == nil {
		t.Fatal("accepted repair beyond tolerance")
	}
	if _, err := c.PlanRepair([]int{0, 0}); err == nil {
		t.Fatal("accepted duplicate")
	}
	if _, err := c.PlanRepair([]int{9}); err == nil {
		t.Fatal("accepted invalid node")
	}
}

func TestReadPaths(t *testing.T) {
	c := New(9, 6)
	_, symbols := encoded(t, c, 6)
	nc := core.MaterializeNodes(c, symbols)

	plan, err := c.PlanRead(2, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Local {
		t.Fatal("read at holder not local")
	}
	plan, err = c.PlanRead(2, nil, core.OffCluster)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bandwidth() != 1 {
		t.Fatalf("remote read bandwidth = %d", plan.Bandwidth())
	}
	// Degraded read: node 2 down -> k-ish transfers.
	nc.Erase(2)
	plan, err = c.PlanRead(2, []int{2}, core.OffCluster)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bandwidth() < 5 || plan.Bandwidth() > 6 {
		t.Fatalf("degraded read bandwidth = %d, want ~k = 6", plan.Bandwidth())
	}
	got, err := core.ExecuteRead(nc, plan, core.OffCluster, testBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, symbols[2]) {
		t.Fatal("degraded read wrong")
	}
	if _, err := c.PlanRead(8, nil, 0); err == nil {
		t.Fatal("accepted a parity symbol")
	}
	if _, err := c.PlanRead(0, []int{0, 1, 2, 3}, core.OffCluster); err == nil {
		t.Fatal("read succeeded beyond tolerance")
	}
}

func TestRegistry(t *testing.T) {
	for name, k := range map[string]int{"rs-14-10": 10, "rs-9-6": 6} {
		c, err := core.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.DataSymbols() != k {
			t.Fatalf("%s: k = %d", name, c.DataSymbols())
		}
	}
}

// TestRSVsPentagonRepairBill pins the comparison that motivates the
// paper: RS single-node repair moves ~k blocks to restore one block,
// the pentagon moves one block per block restored.
func TestRSVsPentagonRepairBill(t *testing.T) {
	rsPlan, err := New(14, 10).PlanRepair([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	perBlockRS := float64(rsPlan.Bandwidth()) / 1.0
	if perBlockRS < 9 {
		t.Fatalf("RS repair bill %v blocks per block, want ~10", perBlockRS)
	}
}

// TestConcurrentDecodeDistinctPatterns decodes one encoded stripe set
// under many different erasure patterns from many goroutines at once.
// Every pattern shares the code's per-pattern inverse cache, so this is
// the correctness (and, under -race, the safety) test for the cached
// decode plans.
func TestConcurrentDecodeDistinctPatterns(t *testing.T) {
	c := New(9, 6)
	data, symbols := encoded(t, c, 77)
	// All 2-of-9 erasure patterns (within tolerance 3).
	var patterns [][]int
	for a := 0; a < c.Symbols(); a++ {
		for b := a + 1; b < c.Symbols(); b++ {
			patterns = append(patterns, []int{a, b})
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(patterns))
	for _, pat := range patterns {
		pat := pat
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				avail := append([][]byte(nil), symbols...)
				for _, s := range pat {
					avail[s] = nil
				}
				got, err := c.Decode(avail)
				if err != nil {
					errs <- fmt.Errorf("pattern %v: %v", pat, err)
					return
				}
				for i := range data {
					if !bytes.Equal(got[i], data[i]) {
						errs <- fmt.Errorf("pattern %v: data block %d wrong", pat, i)
						return
					}
				}
				// Exercise the shared cache from the planner side too.
				if _, err := c.PlanRead(0, pat, core.OffCluster); err != nil {
					errs <- fmt.Errorf("pattern %v: PlanRead: %v", pat, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c.inverses.Len() == 0 {
		t.Fatal("decode-plan cache never populated")
	}
}

// cloneAll deep-copies symbols, so a decode under test works on copies
// and cannot change the encoded symbols it is checked against.
func cloneAll(symbols [][]byte) [][]byte {
	out := make([][]byte, len(symbols))
	for i, s := range symbols {
		out[i] = bytes.Clone(s)
	}
	return out
}
