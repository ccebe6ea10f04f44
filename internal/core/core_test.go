package core

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// xorCode is a minimal in-package test code: 2 data symbols + 1 XOR
// parity, each on its own node.
type xorCode struct{}

func (xorCode) Name() string        { return "xor-test" }
func (xorCode) DataSymbols() int    { return 2 }
func (xorCode) Symbols() int        { return 3 }
func (xorCode) Nodes() int          { return 3 }
func (xorCode) FaultTolerance() int { return 1 }

func (xorCode) Placement() Placement {
	return PlacementFromSymbolNodes([][]int{{0}, {1}, {2}}, 3)
}

func (c xorCode) Encode(data [][]byte) ([][]byte, error) { return Encode(c, data) }

func (xorCode) EncodeInto(data, out [][]byte) error {
	EncodeXOR(data, out)
	return nil
}

func (c xorCode) Decode(avail [][]byte) ([][]byte, error) { return DecodeXOR(c, avail) }

func (xorCode) PlanRepair([]int) (*RepairPlan, error) {
	return nil, errors.New("xor-test: plans no repairs")
}

func (xorCode) PlanRead(int, []int, int) (*ReadPlan, error) {
	return nil, errors.New("xor-test: plans no reads")
}

func TestCheckEncodeInput(t *testing.T) {
	if _, err := checkEncodeInput([][]byte{{1}, {2}}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := checkEncodeInput([][]byte{{1}}, 2); err == nil {
		t.Fatal("accepted wrong count")
	}
	if _, err := checkEncodeInput([][]byte{{1}, nil}, 2); err == nil {
		t.Fatal("accepted nil block")
	}
	if _, err := checkEncodeInput([][]byte{{1}, {2, 3}}, 2); !errors.Is(err, ErrBlockSize) {
		t.Fatalf("want ErrBlockSize, got %v", err)
	}
	if _, err := checkEncodeInput([][]byte{nil, {1}}, 2); err == nil {
		t.Fatal("accepted leading nil block")
	}
}

func TestStorageOverhead(t *testing.T) {
	if so := StorageOverhead(xorCode{}); so != 1.5 {
		t.Fatalf("overhead = %v, want 1.5", so)
	}
}

func TestVerifyPlacementAcceptsValid(t *testing.T) {
	if err := VerifyPlacement(xorCode{}); err != nil {
		t.Fatal(err)
	}
}

// badPlacement wraps xorCode with a corrupted placement.
type badPlacement struct {
	xorCode
	p Placement
}

func (b badPlacement) Placement() Placement { return b.p }

func TestVerifyPlacementRejectsBad(t *testing.T) {
	cases := map[string]Placement{
		"wrong symbol count": {SymbolNodes: [][]int{{0}}, NodeSymbols: [][]int{{0}, {}, {}}},
		"no replicas":        {SymbolNodes: [][]int{{0}, {}, {2}}, NodeSymbols: [][]int{{0}, {}, {2}}},
		"invalid node":       {SymbolNodes: [][]int{{0}, {7}, {2}}, NodeSymbols: [][]int{{0}, {}, {2}}},
		"double replica":     {SymbolNodes: [][]int{{0, 0}, {1}, {2}}, NodeSymbols: [][]int{{0, 0}, {1}, {2}}},
		"inconsistent":       {SymbolNodes: [][]int{{0}, {1}, {2}}, NodeSymbols: [][]int{{0}, {2}, {1}}},
	}
	for name, p := range cases {
		if err := VerifyPlacement(badPlacement{p: p}); err == nil {
			t.Errorf("%s: VerifyPlacement accepted corrupt placement", name)
		}
	}
}

func TestPlacementHelpers(t *testing.T) {
	p := PlacementFromSymbolNodes([][]int{{0, 1}, {1, 2}}, 3)
	if p.TotalBlocks() != 4 {
		t.Fatalf("TotalBlocks = %d, want 4", p.TotalBlocks())
	}
}

func TestRegistryUnknown(t *testing.T) {
	if _, err := New("no-such-code"); err == nil {
		t.Fatal("New accepted unknown code")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	Register("core-test-dup", func() Code { return xorCode{} })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("core-test-dup", func() Code { return xorCode{} })
}

// TestRegisterRejectsBrokenLayout: a code whose SymbolNodes and
// NodeSymbols disagree cannot register, and the registry is unchanged.
func TestRegisterRejectsBrokenLayout(t *testing.T) {
	broken := badPlacement{p: Placement{SymbolNodes: [][]int{{0}, {1}, {2}}, NodeSymbols: [][]int{{0}, {2}, {1}}}}
	before := Names()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Register accepted a code whose SymbolNodes and NodeSymbols disagree")
			}
		}()
		Register("core-test-broken", func() Code { return broken })
	}()
	if got := Names(); !slices.Equal(got, before) {
		t.Fatalf("registry changed: %v -> %v", before, got)
	}
	if _, err := New("core-test-broken"); err == nil {
		t.Fatal("New built a code that failed to register")
	}
}

func TestExecuteRepairDetectsDeadlock(t *testing.T) {
	c := xorCode{}
	symbols, _ := c.Encode([][]byte{{1, 2}, {3, 4}})
	nc := MaterializeNodes(c, symbols)
	nc.Erase(0)
	// A transfer sourcing the erased symbol from the erased node can
	// never run.
	plan := &RepairPlan{
		Failed:    []int{0},
		Transfers: []Transfer{{From: 0, To: 1, Terms: []Term{{Symbol: 0, Coeff: 1}}}},
	}
	if err := ExecuteRepair(nc, plan, 2); err == nil {
		t.Fatal("deadlocked plan executed successfully")
	}
}

func TestExecuteRepairRejectsMisroutedRecovery(t *testing.T) {
	c := xorCode{}
	symbols, _ := c.Encode([][]byte{{1, 2}, {3, 4}})
	nc := MaterializeNodes(c, symbols)
	nc.Erase(0)
	plan := &RepairPlan{
		Failed:    []int{0},
		Transfers: []Transfer{{From: 1, To: 2, Terms: []Term{{Symbol: 1, Coeff: 1}}}},
		// Recovery at node 0 citing a transfer that went to node 2.
		Recoveries: []Recovery{{Node: 0, Symbol: 0, Sources: []int{0}}},
	}
	if err := ExecuteRepair(nc, plan, 2); err == nil {
		t.Fatal("misrouted recovery accepted")
	}
}

func TestExecuteRepairScratchRemoved(t *testing.T) {
	c := xorCode{}
	symbols, _ := c.Encode([][]byte{{1, 2}, {3, 4}})
	nc := MaterializeNodes(c, symbols)
	nc.Erase(0)
	plan := &RepairPlan{
		Failed: []int{0},
		Transfers: []Transfer{
			{From: 1, To: 2, Terms: []Term{{Symbol: 1, Coeff: 1}}},                        // stage sym1 at node 2
			{From: 2, To: 0, Terms: []Term{{Symbol: 1, Coeff: 1}, {Symbol: 2, Coeff: 1}}}, // partial
		},
		Recoveries: []Recovery{
			{Node: 2, Symbol: 1, Sources: []int{0}, Scratch: true},
			{Node: 0, Symbol: 0, Sources: []int{1}},
		},
	}
	if err := ExecuteRepair(nc, plan, 2); err != nil {
		t.Fatal(err)
	}
	if _, ok := nc[2][1]; ok {
		t.Fatal("scratch symbol not removed")
	}
	if !bytes.Equal(nc[0][0], symbols[0]) {
		t.Fatal("symbol 0 not restored")
	}
}

func TestRepairPlanMergeRebasesSources(t *testing.T) {
	p1 := &RepairPlan{
		Failed:     []int{0},
		Transfers:  []Transfer{{From: 1, To: 0}},
		Recoveries: []Recovery{{Node: 0, Symbol: 0, Sources: []int{0}}},
	}
	p2 := &RepairPlan{
		Failed:     []int{0, 2},
		Transfers:  []Transfer{{From: 1, To: 2}},
		Recoveries: []Recovery{{Node: 2, Symbol: 2, Sources: []int{0}}},
	}
	p1.Merge(p2)
	if len(p1.Transfers) != 2 || len(p1.Recoveries) != 2 {
		t.Fatal("merge lost steps")
	}
	if p1.Recoveries[1].Sources[0] != 1 {
		t.Fatalf("merge did not rebase sources: %v", p1.Recoveries[1].Sources)
	}
	if len(p1.Failed) != 2 {
		t.Fatalf("merge failed-union wrong: %v", p1.Failed)
	}
}

func TestReadPlanBandwidthSkipsLoopback(t *testing.T) {
	p := &ReadPlan{Transfers: []Transfer{
		{From: 1, To: 1},
		{From: 2, To: 1},
	}}
	if p.Bandwidth() != 1 {
		t.Fatalf("bandwidth = %d, want 1", p.Bandwidth())
	}
}

func TestExecuteReadLocalValidation(t *testing.T) {
	c := xorCode{}
	symbols, _ := c.Encode([][]byte{{1, 2}, {3, 4}})
	nc := MaterializeNodes(c, symbols)
	if _, err := ExecuteRead(nc, &ReadPlan{Symbol: 0, Local: true}, OffCluster, 2); err == nil {
		t.Fatal("local read accepted for off-cluster reader")
	}
	if _, err := ExecuteRead(nc, &ReadPlan{Symbol: 0, Local: true}, 1, 2); err == nil {
		t.Fatal("local read accepted at node lacking the symbol")
	}
	got, err := ExecuteRead(nc, &ReadPlan{Symbol: 0, Local: true}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, symbols[0]) {
		t.Fatal("local read wrong")
	}
}

func TestStriperRoundTrip(t *testing.T) {
	c := xorCode{}
	st, err := NewStriper(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100)
		data := make([]byte, n)
		rng.Read(data)
		got, err := joinStripes(st, streamStripes(t, st, data, 0), n)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStriperDegradedRoundTrip(t *testing.T) {
	c := xorCode{}
	st, _ := NewStriper(c, 4)
	data := []byte("the quick brown fox jumps over the lazy dog")
	stripes := streamStripes(t, st, data, 0)
	// Erase one symbol per stripe, alternating.
	for i := range stripes {
		stripes[i][i%3] = nil
	}
	got, err := joinStripes(st, stripes, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("degraded decode = %q", got)
	}
}

func TestStriperCounts(t *testing.T) {
	c := xorCode{}
	st, _ := NewStriper(c, 4)
	cases := []struct{ n, want int }{
		{0, 0}, {1, 1}, {4, 1}, {5, 1}, {8, 1}, {9, 2}, {16, 2}, {17, 3},
	}
	for _, tc := range cases {
		if got := st.StripeCount(tc.n); got != tc.want {
			t.Errorf("StripeCount(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestStriperErrors(t *testing.T) {
	if _, err := NewStriper(xorCode{}, 0); err == nil {
		t.Fatal("NewStriper accepted zero block size")
	}
}

func TestErasureErrorMessage(t *testing.T) {
	e := &ErasureError{Code: "pentagon", Missing: []int{1, 2}, Reason: "why"}
	if e.Error() == "" {
		t.Fatal("empty error message")
	}
}

func TestNodeContentsAvailable(t *testing.T) {
	c := xorCode{}
	symbols, _ := c.Encode([][]byte{{1, 2}, {3, 4}})
	nc := MaterializeNodes(c, symbols)
	nc.Erase(1)
	avail := nc.Available(3)
	if avail[0] == nil || avail[1] != nil || avail[2] == nil {
		t.Fatalf("Available wrong: %v", avail)
	}
}
