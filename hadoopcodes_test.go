package hadoopcodes

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
)

func TestFacadeConstructors(t *testing.T) {
	if NewPentagon().Name() != "pentagon" {
		t.Error("NewPentagon wrong")
	}
	if NewRAIDM(9).Nodes() != 20 {
		t.Error("NewRAIDM wrong")
	}
}

func TestFacadeRegistry(t *testing.T) {
	want := []string{"2-rep", "3-rep", "heptagon", "heptagon-local", "pentagon", "raid+m-10-9", "raid+m-12-11", "rs-14-10", "rs-9-6"}
	for _, w := range want {
		c, err := New(w)
		if err != nil {
			t.Fatalf("New(%q): %v", w, err)
		}
		if err := core.VerifyPlacement(c); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	// The doc-comment quick start, verified.
	code := NewPentagon()
	rng := rand.New(rand.NewSource(1))
	data := make([][]byte, code.DataSymbols())
	for i := range data {
		data[i] = make([]byte, 64)
		rng.Read(data[i])
	}
	symbols, err := code.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := code.PlanRepair([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bandwidth() != 10 {
		t.Fatalf("repair bandwidth = %d, want 10", plan.Bandwidth())
	}
	nc := MaterializeNodes(code, symbols)
	nc.Erase(0, 1)
	if err := ExecuteRepair(nc, plan, 64); err != nil {
		t.Fatal(err)
	}
	rp, err := code.PlanRead(0, nil, OffCluster)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.ExecuteRead(nc, rp, OffCluster, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[0]) {
		t.Fatal("read-back mismatch")
	}
}

func TestFacadeRSAndStore(t *testing.T) {
	s, err := CreateStoreExt(t.TempDir(), "rs-14-10", 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("x"), 50_000)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	if err := s.KillNode(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Repair([]int{0}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("store unhealthy after facade repair: %+v", rep)
	}
	got, err := s.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("facade store round trip failed")
	}
}

func TestFacadeTiering(t *testing.T) {
	s, err := CreateStoreExt(t.TempDir(), "rs-14-10", 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("tier"), 25_000)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	tr := NewHeatTracker(100)
	d, err := NewTierDaemon(s, TierPolicy{
		HotCode: "pentagon", ColdCode: "rs-14-10", PromoteAt: 3, DemoteAt: 1,
	}, tr, TierDaemonConfig{})
	if err != nil {
		t.Fatal(err)
	}
	clock := 0.0
	s.OnReadExtent = func(name string, ext int) { tr.TouchExtent(name, ext, clock) }
	for i := 0; i < 4; i++ {
		if _, err := s.Get("f"); err != nil {
			t.Fatal(err)
		}
	}
	moves, err := d.Tick(clock)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 1 || !moves[0].Promote {
		t.Fatalf("facade promotion moves = %+v", moves)
	}
	if code, _ := s.FileCode("f"); code != "pentagon" {
		t.Fatalf("facade code = %q", code)
	}
	got, err := s.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("facade tiering changed bytes")
	}
}
