package heptlocal

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gf256"
)

const testBlockSize = 48

func randomData(tb testing.TB, seed int64) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([][]byte, K)
	for i := range data {
		data[i] = make([]byte, testBlockSize)
		rng.Read(data[i])
	}
	return data
}

func encoded(tb testing.TB, seed int64) ([][]byte, [][]byte) {
	tb.Helper()
	data := randomData(tb, seed)
	c := New()
	symbols, err := c.Encode(data)
	if err != nil {
		tb.Fatal(err)
	}
	return data, symbols
}

func TestShape(t *testing.T) {
	c := New()
	if c.DataSymbols() != 40 {
		t.Errorf("k = %d, want 40", c.DataSymbols())
	}
	if c.Symbols() != 44 {
		t.Errorf("symbols = %d, want 44", c.Symbols())
	}
	if c.Nodes() != 15 {
		t.Errorf("n = %d, want 15", c.Nodes())
	}
	if got := c.Placement().TotalBlocks(); got != 86 {
		t.Errorf("stores %d blocks, want 86 (paper §2.2)", got)
	}
	if so := core.StorageOverhead(c); so < 2.149 || so > 2.151 {
		t.Errorf("overhead = %.3f, want 2.15", so)
	}
	if c.FaultTolerance() != 3 {
		t.Errorf("fault tolerance = %d, want 3", c.FaultTolerance())
	}
}

func TestPlacementInvariants(t *testing.T) {
	c := New()
	if err := core.VerifyPlacement(c); err != nil {
		t.Fatal(err)
	}
	p := c.Placement()
	// Heptagon nodes hold 6 blocks each; the global node holds 2.
	for v := 0; v < 14; v++ {
		if len(p.NodeSymbols[v]) != 6 {
			t.Errorf("node %d holds %d symbols, want 6", v, len(p.NodeSymbols[v]))
		}
	}
	if len(p.NodeSymbols[globalNode]) != 2 {
		t.Errorf("global node holds %d symbols, want 2", len(p.NodeSymbols[globalNode]))
	}
	// Heptagon A symbols live on nodes 0-6, B on 7-13.
	for g := 0; g < K+2; g++ {
		h := groupOf(g)
		for _, v := range p.SymbolNodes[g] {
			if v/7 != h {
				t.Errorf("symbol %d (group %d) placed on node %d", g, h, v)
			}
		}
	}
}

func TestEncodeParities(t *testing.T) {
	data, symbols := encoded(t, 1)
	if !bytes.Equal(symbols[localParityA], xorOf(data[:20]...)) {
		t.Error("local parity A wrong")
	}
	if !bytes.Equal(symbols[localParityB], xorOf(data[20:]...)) {
		t.Error("local parity B wrong")
	}
	q0 := make([]byte, testBlockSize)
	q1 := make([]byte, testBlockSize)
	for i, d := range data {
		gf256.MulAddSlice(gf256.Exp(i), d, q0)
		gf256.MulAddSlice(gf256.Exp(2*i), d, q1)
	}
	if !bytes.Equal(symbols[globalQ0], q0) {
		t.Error("Q0 wrong")
	}
	if !bytes.Equal(symbols[globalQ1], q1) {
		t.Error("Q1 wrong")
	}
	for i := range data {
		if !bytes.Equal(symbols[i], data[i]) {
			t.Fatalf("not systematic at %d", i)
		}
	}
}

// TestDecodeAnyThreeNodeErasure is the exhaustive fault-tolerance test:
// all C(15,3) = 455 node-erasure patterns must decode.
func TestDecodeAnyThreeNodeErasure(t *testing.T) {
	c := New()
	data, symbols := encoded(t, 2)
	count := 0
	for f1 := 0; f1 < N; f1++ {
		for f2 := f1 + 1; f2 < N; f2++ {
			for f3 := f2 + 1; f3 < N; f3++ {
				nc := core.MaterializeNodes(c, symbols)
				nc.Erase(f1, f2, f3)
				decoded, err := c.Decode(nc.Available(S))
				if err != nil {
					t.Fatalf("decode after erasing %d,%d,%d: %v", f1, f2, f3, err)
				}
				for i := range data {
					if !bytes.Equal(decoded[i], data[i]) {
						t.Fatalf("block %d wrong after erasing %d,%d,%d", i, f1, f2, f3)
					}
				}
				count++
			}
		}
	}
	if count != 455 {
		t.Fatalf("tested %d patterns, want 455", count)
	}
}

func TestDecodeFourNodeErasureInOneHeptagonFails(t *testing.T) {
	c := New()
	_, symbols := encoded(t, 3)
	nc := core.MaterializeNodes(c, symbols)
	nc.Erase(0, 1, 2, 3) // loses 6 symbols entirely: beyond any help
	if _, err := c.Decode(nc.Available(S)); err == nil {
		t.Fatal("decode succeeded after losing 6 symbols")
	}
}

func TestDecodeNoErasure(t *testing.T) {
	c := New()
	data, symbols := encoded(t, 4)
	decoded, err := c.Decode(symbols)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(decoded[i], data[i]) {
			t.Fatalf("block %d corrupted", i)
		}
	}
}

func TestDecodeRecoverableFourSymbolPattern(t *testing.T) {
	// Two nodes down in each heptagon loses one symbol per heptagon
	// (2 total); adding the global node makes a recoverable 3-node...
	// here instead: erase 4 symbols directly — one data per heptagon
	// plus both globals — which the parity equations can still solve.
	c := New()
	data, symbols := encoded(t, 5)
	avail := cloneAll(symbols)
	avail[3] = nil
	avail[25] = nil
	avail[globalQ0] = nil
	avail[globalQ1] = nil
	decoded, err := c.Decode(avail)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(decoded[i], data[i]) {
			t.Fatalf("block %d wrong", i)
		}
	}
}

func TestDecodeUnsolvableFourSymbolPattern(t *testing.T) {
	// Two data symbols missing in one heptagon with both globals gone:
	// only the local XOR equation remains, rank 1 < 2.
	c := New()
	_, symbols := encoded(t, 6)
	avail := cloneAll(symbols)
	avail[3] = nil
	avail[5] = nil
	avail[globalQ0] = nil
	avail[globalQ1] = nil
	if _, err := c.Decode(avail); err == nil {
		t.Fatal("decode succeeded on rank-deficient pattern")
	}
}

// TestRepairAllSingleAndDoubleFailures checks local repair for every 1-
// and 2-node failure pattern, and that local repairs never touch the
// other heptagon or the global node.
func TestRepairAllSingleAndDoubleFailures(t *testing.T) {
	c := New()
	_, symbols := encoded(t, 7)
	for f1 := 0; f1 < N; f1++ {
		t.Run("", func(t *testing.T) {
			plan, err := c.PlanRepair([]int{f1})
			if err != nil {
				t.Fatal(err)
			}
			nc := core.MaterializeNodes(c, symbols)
			nc.Erase(f1)
			if err := core.ExecuteRepair(nc, plan, testBlockSize); err != nil {
				t.Fatalf("repair of %d: %v", f1, err)
			}
			assertFullyRestored(t, c, nc, symbols)
			if f1 < 7 {
				assertNoSourceIn(t, plan, 7, 15)
			} else if f1 < 14 {
				assertNoSourceIn(t, plan, 0, 7)
				assertNoSourceIn(t, plan, 14, 15)
			}
		})
		for f2 := f1 + 1; f2 < N; f2++ {
			plan, err := c.PlanRepair([]int{f1, f2})
			if err != nil {
				t.Fatalf("plan for %d,%d: %v", f1, f2, err)
			}
			nc := core.MaterializeNodes(c, symbols)
			nc.Erase(f1, f2)
			if err := core.ExecuteRepair(nc, plan, testBlockSize); err != nil {
				t.Fatalf("repair of %d,%d: %v", f1, f2, err)
			}
			assertFullyRestored(t, c, nc, symbols)
		}
	}
}

// TestRepairAllTripleFailures executes the repair plan for every
// C(15,3) = 455 triple failure, including the global-assisted path for
// three failures inside one heptagon.
func TestRepairAllTripleFailures(t *testing.T) {
	c := New()
	_, symbols := encoded(t, 8)
	for f1 := 0; f1 < N; f1++ {
		for f2 := f1 + 1; f2 < N; f2++ {
			for f3 := f2 + 1; f3 < N; f3++ {
				plan, err := c.PlanRepair([]int{f1, f2, f3})
				if err != nil {
					t.Fatalf("plan for %d,%d,%d: %v", f1, f2, f3, err)
				}
				nc := core.MaterializeNodes(c, symbols)
				nc.Erase(f1, f2, f3)
				if err := core.ExecuteRepair(nc, plan, testBlockSize); err != nil {
					t.Fatalf("repair of %d,%d,%d: %v", f1, f2, f3, err)
				}
				assertFullyRestored(t, c, nc, symbols)
			}
		}
	}
}

func TestLocalRepairBandwidthMatchesHeptagon(t *testing.T) {
	c := New()
	// Single in-heptagon failure: 6 copies, like the heptagon code.
	plan, err := c.PlanRepair([]int{3})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bandwidth() != 6 {
		t.Errorf("single repair bandwidth = %d, want 6", plan.Bandwidth())
	}
	// Double in-heptagon failure: 3(n-2)+1 = 16.
	plan, err = c.PlanRepair([]int{8, 12})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bandwidth() != 16 {
		t.Errorf("double repair bandwidth = %d, want 16", plan.Bandwidth())
	}
}

func TestGlobalRebuildUsesPartialParities(t *testing.T) {
	c := New()
	plan, err := c.PlanRepair([]int{globalNode})
	if err != nil {
		t.Fatal(err)
	}
	// Two partials from each contributing node. Under the
	// lower-endpoint orientation nodes 0-4 of each heptagon own data
	// edges (node 5's only forward edge is the parity edge, node 6 owns
	// none), so 5 nodes x 2 partials x 2 heptagons = 20 transfers,
	// versus 40 for shipping raw data blocks.
	if plan.Bandwidth() != 20 {
		t.Errorf("global rebuild bandwidth = %d, want 20", plan.Bandwidth())
	}
	if plan.Bandwidth() >= 40 {
		t.Error("global rebuild no cheaper than raw data shipping")
	}
}

func TestTripleRepairTouchesBothHeptagons(t *testing.T) {
	c := New()
	plan, err := c.PlanRepair([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	usesB, usesGlobal := false, false
	for _, tr := range plan.Transfers {
		if tr.From >= 7 && tr.From < 14 {
			usesB = true
		}
		if tr.From == globalNode {
			usesGlobal = true
		}
	}
	if !usesB || !usesGlobal {
		t.Fatalf("triple repair should engage heptagon B (%v) and the global node (%v)", usesB, usesGlobal)
	}
}

func TestRepairRejectsFourFailures(t *testing.T) {
	c := New()
	if _, err := c.PlanRepair([]int{0, 1, 2, 3}); err == nil {
		t.Fatal("PlanRepair accepted 4 failures")
	}
	if _, err := c.PlanRepair([]int{0, 0}); err == nil {
		t.Fatal("PlanRepair accepted duplicates")
	}
	if _, err := c.PlanRepair([]int{15}); err == nil {
		t.Fatal("PlanRepair accepted invalid node")
	}
}

func TestReadLocalAndCopy(t *testing.T) {
	c := New()
	_, symbols := encoded(t, 9)
	nc := core.MaterializeNodes(c, symbols)
	for g := 0; g < K; g++ {
		h := groupOf(g)
		i, j := c.edgeEndpoints(h, g)
		plan, err := c.PlanRead(g, nil, i)
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Local {
			t.Fatalf("read of %d at %d not local", g, i)
		}
		plan, err = c.PlanRead(g, []int{i}, core.OffCluster)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Bandwidth() != 1 || plan.Transfers[0].From != j {
			t.Fatalf("read of %d with %d down should copy from %d", g, i, j)
		}
		got, err := core.ExecuteRead(nc, plan, core.OffCluster, testBlockSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, symbols[g]) {
			t.Fatalf("read of %d returned wrong data", g)
		}
	}
}

func TestDegradedReadAllDataSymbols(t *testing.T) {
	c := New()
	_, symbols := encoded(t, 10)
	for g := 0; g < K; g++ {
		h := groupOf(g)
		i, j := c.edgeEndpoints(h, g)
		nc := core.MaterializeNodes(c, symbols)
		nc.Erase(i, j)
		plan, err := c.PlanRead(g, []int{i, j}, core.OffCluster)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Bandwidth() != 5 {
			t.Fatalf("degraded read of %d bandwidth = %d, want 5", g, plan.Bandwidth())
		}
		got, err := core.ExecuteRead(nc, plan, core.OffCluster, testBlockSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, symbols[g]) {
			t.Fatalf("degraded read of %d returned wrong data", g)
		}
	}
}

func TestReadErrorsBeyondLocalTolerance(t *testing.T) {
	c := New()
	// Three failures in heptagon A including both replicas of symbol 0.
	i, j := c.edgeEndpoints(0, 0)
	var third int
	for v := 0; v < 7; v++ {
		if v != i && v != j {
			third = v
			break
		}
	}
	if _, err := c.PlanRead(0, []int{i, j, third}, core.OffCluster); err == nil {
		t.Fatal("PlanRead succeeded with 3 in-heptagon failures")
	}
	if _, err := c.PlanRead(41, nil, core.OffCluster); err == nil {
		t.Fatal("PlanRead accepted a parity symbol")
	}
}

// TestDecodeProperty fuzzes erasure patterns of up to 3 nodes with
// random data.
func TestDecodeProperty(t *testing.T) {
	c := New()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([][]byte, K)
		for i := range data {
			data[i] = make([]byte, 16)
			rng.Read(data[i])
		}
		symbols, err := c.Encode(data)
		if err != nil {
			return false
		}
		perm := rng.Perm(N)
		failed := perm[:1+rng.Intn(3)]
		nc := core.MaterializeNodes(c, symbols)
		nc.Erase(failed...)
		decoded, err := c.Decode(nc.Available(S))
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

func assertFullyRestored(t *testing.T, c *Code, nc core.NodeContents, symbols [][]byte) {
	t.Helper()
	p := c.Placement()
	for v := range nc {
		if len(nc[v]) != len(p.NodeSymbols[v]) {
			t.Fatalf("node %d holds %d symbols, want %d", v, len(nc[v]), len(p.NodeSymbols[v]))
		}
		for _, s := range p.NodeSymbols[v] {
			b, ok := nc[v][s]
			if !ok {
				t.Fatalf("node %d missing symbol %d after repair", v, s)
			}
			if !bytes.Equal(b, symbols[s]) {
				t.Fatalf("node %d symbol %d corrupted after repair", v, s)
			}
		}
	}
}

func assertNoSourceIn(t *testing.T, plan *core.RepairPlan, lo, hi int) {
	t.Helper()
	for _, tr := range plan.Transfers {
		if tr.From >= lo && tr.From < hi {
			t.Fatalf("local repair read from node %d (range %d-%d)", tr.From, lo, hi)
		}
	}
}

// TestConcurrentDecodeDistinctPatterns decodes the same stripe under
// every 3-node erasure pattern concurrently, all sharing the cached
// syndrome-solve plans — the -race guard for the decode-plan cache.
func TestConcurrentDecodeDistinctPatterns(t *testing.T) {
	data, symbols := encoded(t, 78)
	c := New()
	var patterns [][]int
	for a := 0; a < N; a++ {
		for b := a + 1; b < N; b++ {
			for d := b + 1; d < N; d++ {
				patterns = append(patterns, []int{a, b, d})
			}
		}
	}
	// Keep the goroutine count bounded: shard the patterns.
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pi := w; pi < len(patterns); pi += workers {
				nodes := patterns[pi]
				nc := core.MaterializeNodes(c, symbols)
				nc.Erase(nodes...)
				got, err := c.Decode(nc.Available(S))
				if err != nil {
					errs <- fmt.Errorf("erasing nodes %v: %v", nodes, err)
					return
				}
				for i := range data {
					if !bytes.Equal(got[i], data[i]) {
						errs <- fmt.Errorf("erasing nodes %v: block %d wrong", nodes, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
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

// cloneAll deep-copies symbols, so a decode under test works on copies
// and cannot change the encoded symbols it is checked against.
func cloneAll(symbols [][]byte) [][]byte {
	out := make([][]byte, len(symbols))
	for i, s := range symbols {
		out[i] = bytes.Clone(s)
	}
	return out
}
