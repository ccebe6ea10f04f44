package replication

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
)

func TestShape(t *testing.T) {
	for _, r := range []int{1, 2, 3, 5} {
		c := New(r)
		if c.DataSymbols() != 1 || c.Symbols() != 1 {
			t.Errorf("%d-rep: bad symbol counts", r)
		}
		if c.Nodes() != r {
			t.Errorf("%d-rep: nodes = %d", r, c.Nodes())
		}
		if c.FaultTolerance() != r-1 {
			t.Errorf("%d-rep: tolerance = %d", r, c.FaultTolerance())
		}
		if so := core.StorageOverhead(c); so != float64(r) {
			t.Errorf("%d-rep: overhead = %v", r, so)
		}
		if err := core.VerifyPlacement(c); err != nil {
			t.Errorf("%d-rep: %v", r, err)
		}
	}
}

func TestInvalidFactorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestEncodeDecode(t *testing.T) {
	c := New(3)
	data := [][]byte{{1, 2, 3, 4}}
	symbols, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(symbols) != 1 || !bytes.Equal(symbols[0], data[0]) {
		t.Fatal("Encode must be the identity")
	}
	decoded, err := c.Decode(symbols)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decoded[0], data[0]) {
		t.Fatal("Decode returned wrong data")
	}
	if _, err := c.Decode([][]byte{nil}); err == nil {
		t.Fatal("Decode succeeded with all replicas lost")
	}
	if _, err := c.Encode([][]byte{{1}, {2}}); err == nil {
		t.Fatal("Encode accepted 2 blocks")
	}
}

func TestRepairEveryPattern(t *testing.T) {
	c := New(3)
	rng := rand.New(rand.NewSource(1))
	data := [][]byte{make([]byte, 32)}
	rng.Read(data[0])
	symbols, _ := c.Encode(data)
	patterns := [][]int{{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}}
	for _, failed := range patterns {
		plan, err := c.PlanRepair(failed)
		if err != nil {
			t.Fatalf("plan %v: %v", failed, err)
		}
		if plan.Bandwidth() != len(failed) {
			t.Errorf("repair of %v costs %d, want %d", failed, plan.Bandwidth(), len(failed))
		}
		nc := core.MaterializeNodes(c, symbols)
		nc.Erase(failed...)
		if err := core.ExecuteRepair(nc, plan, 32); err != nil {
			t.Fatalf("repair %v: %v", failed, err)
		}
		for v := 0; v < 3; v++ {
			if !bytes.Equal(nc[v][0], data[0]) {
				t.Fatalf("node %d wrong after repairing %v", v, failed)
			}
		}
	}
	if _, err := c.PlanRepair([]int{0, 1, 2}); err == nil {
		t.Fatal("PlanRepair accepted total loss")
	}
	if _, err := c.PlanRepair([]int{7}); err == nil {
		t.Fatal("PlanRepair accepted invalid node")
	}
}

func TestPlanRead(t *testing.T) {
	c := New(2)
	plan, err := c.PlanRead(0, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Local {
		t.Fatal("read at replica holder should be local")
	}
	plan, err = c.PlanRead(0, []int{1}, core.OffCluster)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bandwidth() != 1 || plan.Transfers[0].From != 0 {
		t.Fatal("remote read should copy from surviving replica")
	}
	if _, err := c.PlanRead(0, []int{0, 1}, core.OffCluster); err == nil {
		t.Fatal("read succeeded with all replicas down")
	}
	if _, err := c.PlanRead(1, nil, 0); err == nil {
		t.Fatal("read accepted invalid symbol")
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"2-rep", "3-rep"} {
		c, err := core.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != name {
			t.Fatalf("registry returned %q for %q", c.Name(), name)
		}
	}
}
