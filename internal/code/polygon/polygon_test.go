package polygon

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gf256"
)

const testBlockSize = 64

func randomData(t *testing.T, seed int64, k int) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, testBlockSize)
		rng.Read(data[i])
	}
	return data
}

func encoded(t *testing.T, c *Code, seed int64) ([][]byte, [][]byte) {
	t.Helper()
	data := randomData(t, seed, c.DataSymbols())
	symbols, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	return data, symbols
}

func TestPentagonShape(t *testing.T) {
	c := New(5)
	if c.DataSymbols() != 9 {
		t.Errorf("pentagon k = %d, want 9", c.DataSymbols())
	}
	if c.Symbols() != 10 {
		t.Errorf("pentagon symbols = %d, want 10", c.Symbols())
	}
	if c.Nodes() != 5 {
		t.Errorf("pentagon n = %d, want 5", c.Nodes())
	}
	if got := c.Placement().TotalBlocks(); got != 20 {
		t.Errorf("pentagon stores %d blocks, want 20", got)
	}
	if so := core.StorageOverhead(c); so < 2.221 || so > 2.223 {
		t.Errorf("pentagon overhead = %.3f, want 2.22", so)
	}
	if c.FaultTolerance() != 2 {
		t.Errorf("pentagon fault tolerance = %d, want 2", c.FaultTolerance())
	}
}

func TestHeptagonShape(t *testing.T) {
	c := New(7)
	if c.DataSymbols() != 20 {
		t.Errorf("heptagon k = %d, want 20", c.DataSymbols())
	}
	if c.Symbols() != 21 {
		t.Errorf("heptagon symbols = %d, want 21", c.Symbols())
	}
	if got := c.Placement().TotalBlocks(); got != 42 {
		t.Errorf("heptagon stores %d blocks, want 42", got)
	}
	if so := core.StorageOverhead(c); so < 2.09 || so > 2.11 {
		t.Errorf("heptagon overhead = %.3f, want 2.1", so)
	}
}

func TestPlacementInvariants(t *testing.T) {
	for _, n := range []int{3, 4, 5, 6, 7, 9} {
		c := New(n)
		if err := core.VerifyPlacement(c); err != nil {
			t.Errorf("K%d: %v", n, err)
		}
		// Every node holds exactly n-1 symbols; every symbol on exactly
		// 2 nodes.
		p := c.Placement()
		for v, syms := range p.NodeSymbols {
			if len(syms) != n-1 {
				t.Errorf("K%d node %d holds %d symbols, want %d", n, v, len(syms), n-1)
			}
		}
		for s, nodes := range p.SymbolNodes {
			if len(nodes) != 2 {
				t.Errorf("K%d symbol %d has %d replicas, want 2", n, s, len(nodes))
			}
		}
	}
}

func TestEdgeSymbolRoundTrip(t *testing.T) {
	c := New(7)
	for s := 0; s < c.Symbols(); s++ {
		i, j := c.Edge(s)
		if i >= j {
			t.Fatalf("Edge(%d) = (%d, %d) not ordered", s, i, j)
		}
		if c.EdgeSymbol(i, j) != s || c.EdgeSymbol(j, i) != s {
			t.Fatalf("EdgeSymbol(%d,%d) != %d", i, j, s)
		}
	}
	if c.EdgeSymbol(3, 3) != -1 {
		t.Fatal("EdgeSymbol(v,v) should be -1")
	}
}

func TestEncodeParity(t *testing.T) {
	c := New(5)
	data, symbols := encoded(t, c, 1)
	if !bytes.Equal(symbols[c.ParitySymbol()], xorOf(data...)) {
		t.Fatal("parity symbol is not XOR of data")
	}
	for i, d := range data {
		if !bytes.Equal(symbols[i], d) {
			t.Fatalf("code is not systematic at %d", i)
		}
	}
}

func TestEncodeInputValidation(t *testing.T) {
	c := New(5)
	if _, err := c.Encode(make([][]byte, 3)); err == nil {
		t.Fatal("Encode accepted wrong block count")
	}
	bad := randomData(t, 1, 9)
	bad[4] = bad[4][:10]
	if _, err := c.Encode(bad); err == nil {
		t.Fatal("Encode accepted ragged blocks")
	}
}

// TestDecodeFromAnyTwoNodeErasure exhaustively verifies the paper's
// claim that the contents of any n-2 nodes suffice to recover the data.
func TestDecodeFromAnyTwoNodeErasure(t *testing.T) {
	for _, n := range []int{5, 7} {
		c := New(n)
		data, symbols := encoded(t, c, int64(n))
		for f1 := 0; f1 < n; f1++ {
			for f2 := f1 + 1; f2 < n; f2++ {
				nc := core.MaterializeNodes(c, symbols)
				nc.Erase(f1, f2)
				avail := nc.Available(c.Symbols())
				decoded, err := c.Decode(avail)
				if err != nil {
					t.Fatalf("K%d: decode after erasing %d,%d: %v", n, f1, f2, err)
				}
				for i := range data {
					if !bytes.Equal(decoded[i], data[i]) {
						t.Fatalf("K%d: wrong block %d after erasing %d,%d", n, i, f1, f2)
					}
				}
			}
		}
	}
}

func TestDecodeFailsOnThreeNodeErasure(t *testing.T) {
	c := New(5)
	_, symbols := encoded(t, c, 2)
	nc := core.MaterializeNodes(c, symbols)
	nc.Erase(0, 1, 2)
	if _, err := c.Decode(nc.Available(c.Symbols())); err == nil {
		t.Fatal("decode succeeded after 3 node erasures")
	}
}

func TestDecodeNoErasure(t *testing.T) {
	c := New(5)
	data, symbols := encoded(t, c, 3)
	decoded, err := c.Decode(symbols)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(decoded[i], data[i]) {
			t.Fatalf("block %d corrupted by decode", i)
		}
	}
}

func TestDecodeParityErased(t *testing.T) {
	c := New(5)
	data, symbols := encoded(t, c, 4)
	avail := cloneAll(symbols)
	avail[c.ParitySymbol()] = nil
	decoded, err := c.Decode(avail)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(decoded[i], data[i]) {
			t.Fatalf("block %d wrong with parity erased", i)
		}
	}
}

// TestSingleNodeRepairByTransfer verifies the repair-by-transfer
// property: every failed-node repair is pure copies, one per neighbour.
func TestSingleNodeRepairByTransfer(t *testing.T) {
	for _, n := range []int{5, 7} {
		c := New(n)
		_, symbols := encoded(t, c, int64(10+n))
		for f := 0; f < n; f++ {
			plan, err := c.PlanRepair([]int{f})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := plan.Bandwidth(), n-1; got != want {
				t.Errorf("K%d single repair bandwidth = %d, want %d", n, got, want)
			}
			for _, tr := range plan.Transfers {
				if len(tr.Terms) != 1 || tr.Terms[0].Coeff != 1 {
					t.Errorf("K%d single repair uses a non-copy transfer %v", n, tr)
				}
			}
			nc := core.MaterializeNodes(c, symbols)
			nc.Erase(f)
			if err := core.ExecuteRepair(nc, plan, testBlockSize); err != nil {
				t.Fatalf("K%d repair of node %d: %v", n, f, err)
			}
			assertFullyRestored(t, c, nc, symbols)
		}
	}
}

// TestDoubleNodeRepair verifies the paper's 2-node repair: 10 blocks of
// repair bandwidth for the pentagon, with the doubly-lost block rebuilt
// from partial parities.
func TestDoubleNodeRepair(t *testing.T) {
	for _, n := range []int{5, 7} {
		c := New(n)
		_, symbols := encoded(t, c, int64(20+n))
		for f1 := 0; f1 < n; f1++ {
			for f2 := f1 + 1; f2 < n; f2++ {
				plan, err := c.PlanRepair([]int{f1, f2})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := plan.Bandwidth(), 3*(n-2)+1; got != want {
					t.Errorf("K%d double repair bandwidth = %d, want %d", n, got, want)
				}
				nc := core.MaterializeNodes(c, symbols)
				nc.Erase(f1, f2)
				if err := core.ExecuteRepair(nc, plan, testBlockSize); err != nil {
					t.Fatalf("K%d repair of %d,%d: %v", n, f1, f2, err)
				}
				assertFullyRestored(t, c, nc, symbols)
			}
		}
	}
}

func TestPentagonDoubleRepairBandwidthIsTen(t *testing.T) {
	c := New(5)
	plan, err := c.PlanRepair([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bandwidth() != 10 {
		t.Fatalf("pentagon 2-node repair bandwidth = %d, want 10 (paper §2.1)", plan.Bandwidth())
	}
}

func TestRepairRejectsTooManyFailures(t *testing.T) {
	c := New(5)
	if _, err := c.PlanRepair([]int{0, 1, 2}); err == nil {
		t.Fatal("PlanRepair accepted 3 failures")
	}
	if _, err := c.PlanRepair([]int{0, 0}); err == nil {
		t.Fatal("PlanRepair accepted duplicate failures")
	}
	if _, err := c.PlanRepair([]int{9}); err == nil {
		t.Fatal("PlanRepair accepted invalid node")
	}
}

func TestEmptyRepairPlan(t *testing.T) {
	c := New(5)
	plan, err := c.PlanRepair(nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bandwidth() != 0 {
		t.Fatal("empty repair should be free")
	}
}

func TestReadLocal(t *testing.T) {
	c := New(5)
	for s := 0; s < c.DataSymbols(); s++ {
		i, j := c.Edge(s)
		for _, at := range []int{i, j} {
			plan, err := c.PlanRead(s, nil, at)
			if err != nil {
				t.Fatal(err)
			}
			if !plan.Local || plan.Bandwidth() != 0 {
				t.Fatalf("read of %d at endpoint %d should be local", s, at)
			}
		}
	}
}

func TestReadRemoteCopy(t *testing.T) {
	c := New(5)
	_, symbols := encoded(t, c, 5)
	nc := core.MaterializeNodes(c, symbols)
	s := 0
	i, _ := c.Edge(s)
	// Reader elsewhere, no failures: single copy.
	at := 4
	if at == i {
		t.Fatal("test setup: reader must not be an endpoint")
	}
	plan, err := c.PlanRead(s, nil, at)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Local || plan.Bandwidth() != 1 {
		t.Fatalf("remote read bandwidth = %d, want 1", plan.Bandwidth())
	}
	got, err := core.ExecuteRead(nc, plan, at, testBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, symbols[s]) {
		t.Fatal("remote read returned wrong data")
	}
}

// TestDegradedReadPartialParity verifies the Section 3.1 claim: when
// both replicas of a block are down, the pentagon serves the read with
// only n-2 = 3 block transfers.
func TestDegradedReadPartialParity(t *testing.T) {
	for _, n := range []int{5, 7} {
		c := New(n)
		_, symbols := encoded(t, c, int64(30+n))
		for s := 0; s < c.DataSymbols(); s++ {
			i, j := c.Edge(s)
			nc := core.MaterializeNodes(c, symbols)
			nc.Erase(i, j)
			plan, err := c.PlanRead(s, []int{i, j}, core.OffCluster)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := plan.Bandwidth(), n-2; got != want {
				t.Fatalf("K%d degraded read bandwidth = %d, want %d", n, got, want)
			}
			got, err := core.ExecuteRead(nc, plan, core.OffCluster, testBlockSize)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, symbols[s]) {
				t.Fatalf("K%d degraded read of %d returned wrong data", n, s)
			}
		}
	}
}

func TestDegradedReadAtSurvivorIsCheaper(t *testing.T) {
	c := New(5)
	s := 0
	i, j := c.Edge(s)
	var at int
	for v := 0; v < 5; v++ {
		if v != i && v != j {
			at = v
			break
		}
	}
	plan, err := c.PlanRead(s, []int{i, j}, at)
	if err != nil {
		t.Fatal(err)
	}
	// One of the n-2 partials is computed at the reader itself, so only
	// n-3 cross the network.
	if got, want := plan.Bandwidth(), 2; got != want {
		t.Fatalf("degraded read at survivor bandwidth = %d, want %d", got, want)
	}
}

func TestReadFailsBeyondTolerance(t *testing.T) {
	c := New(5)
	s := 0
	i, j := c.Edge(s)
	var other int
	for v := 0; v < 5; v++ {
		if v != i && v != j {
			other = v
			break
		}
	}
	if _, err := c.PlanRead(s, []int{i, j, other}, core.OffCluster); err == nil {
		t.Fatal("PlanRead succeeded with 3 nodes down")
	}
}

func TestReadValidation(t *testing.T) {
	c := New(5)
	if _, err := c.PlanRead(9, nil, 0); err == nil {
		t.Fatal("PlanRead accepted the parity symbol as a data read")
	}
	if _, err := c.PlanRead(-1, nil, 0); err == nil {
		t.Fatal("PlanRead accepted negative symbol")
	}
	if _, err := c.PlanRead(0, []int{99}, 0); err == nil {
		t.Fatal("PlanRead accepted invalid down node")
	}
}

// TestRepairProperty: random data, every 2-node failure pair, repairs
// restore the exact original layout (quick-checked across seeds).
func TestRepairProperty(t *testing.T) {
	c := New(5)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([][]byte, c.DataSymbols())
		for i := range data {
			data[i] = make([]byte, 32)
			rng.Read(data[i])
		}
		symbols, err := c.Encode(data)
		if err != nil {
			return false
		}
		f1 := rng.Intn(5)
		f2 := (f1 + 1 + rng.Intn(4)) % 5
		plan, err := c.PlanRepair([]int{f1, f2})
		if err != nil {
			return false
		}
		nc := core.MaterializeNodes(c, symbols)
		nc.Erase(f1, f2)
		if err := core.ExecuteRepair(nc, plan, 32); err != nil {
			return false
		}
		p := c.Placement()
		for v := range nc {
			for _, s := range p.NodeSymbols[v] {
				if !bytes.Equal(nc[v][s], symbols[s]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// assertFullyRestored checks that node contents exactly match the
// code's placement with the original symbol data.
func assertFullyRestored(t *testing.T, c core.Code, nc core.NodeContents, symbols [][]byte) {
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
