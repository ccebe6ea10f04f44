package bipartite

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// kuhn is a simple augmenting-path matcher used as an independent
// oracle for Hopcroft-Karp.
func kuhn(g *Graph) int {
	matchR := make([]int, g.nRight)
	for i := range matchR {
		matchR[i] = -1
	}
	var try func(l int, seen []bool) bool
	try = func(l int, seen []bool) bool {
		for _, r := range g.adj[l] {
			if seen[r] {
				continue
			}
			seen[r] = true
			if matchR[r] == -1 || try(matchR[r], seen) {
				matchR[r] = l
				return true
			}
		}
		return false
	}
	size := 0
	for l := 0; l < g.nLeft; l++ {
		if try(l, make([]bool, g.nRight)) {
			size++
		}
	}
	return size
}

func TestMaxMatchingKnownCases(t *testing.T) {
	// Perfect matching on a 3x3 cycle-ish graph.
	g := NewGraph(3, 3)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 2)
	g.AddEdge(2, 0)
	size, match := g.MaxMatching()
	if size != 3 {
		t.Fatalf("size = %d, want 3", size)
	}
	seen := map[int]bool{}
	for l, r := range match {
		if r < 0 || seen[r] {
			t.Fatalf("invalid matching %v at %d", match, l)
		}
		seen[r] = true
	}
}

func TestMaxMatchingBottleneck(t *testing.T) {
	// All left vertices share one right vertex: matching 1.
	g := NewGraph(4, 1)
	for l := 0; l < 4; l++ {
		g.AddEdge(l, 0)
	}
	size, _ := g.MaxMatching()
	if size != 1 {
		t.Fatalf("size = %d, want 1", size)
	}
}

func TestMaxMatchingEmpty(t *testing.T) {
	g := NewGraph(3, 3)
	size, match := g.MaxMatching()
	if size != 0 {
		t.Fatalf("size = %d, want 0", size)
	}
	for _, r := range match {
		if r != -1 {
			t.Fatal("match on edgeless graph")
		}
	}
}

func TestMaxMatchingAgainstKuhn(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := 1 + rng.Intn(12)
		nr := 1 + rng.Intn(12)
		g := NewGraph(nl, nr)
		for l := 0; l < nl; l++ {
			for r := 0; r < nr; r++ {
				if rng.Float64() < 0.3 {
					g.AddEdge(l, r)
				}
			}
		}
		hk, match := g.MaxMatching()
		// The matching must be consistent.
		used := make(map[int]bool)
		count := 0
		for l, r := range match {
			if r == -1 {
				continue
			}
			ok := false
			for _, rr := range g.adj[l] {
				if rr == r {
					ok = true
					break
				}
			}
			if !ok || used[r] {
				return false
			}
			used[r] = true
			count++
		}
		return count == hk && hk == kuhn(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestCapacityMatching(t *testing.T) {
	// 4 tasks, 2 nodes with capacity 2 each, all tasks connect to node
	// 0 only: matching 2.
	g := NewCapacityGraph(4, []int{2, 2})
	for l := 0; l < 4; l++ {
		g.AddEdge(l, 0)
	}
	size, match := g.MaxMatching()
	if size != 2 {
		t.Fatalf("size = %d, want 2", size)
	}
	cnt := 0
	for _, r := range match {
		if r == 0 {
			cnt++
		} else if r != -1 {
			t.Fatalf("task matched to wrong node %d", r)
		}
	}
	if cnt != 2 {
		t.Fatalf("node 0 got %d tasks, want 2", cnt)
	}
}

func TestCapacityMatchingRespectsCapacities(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := 1 + rng.Intn(15)
		nr := 1 + rng.Intn(5)
		caps := make([]int, nr)
		for i := range caps {
			caps[i] = rng.Intn(4)
		}
		g := NewCapacityGraph(nl, caps)
		for l := 0; l < nl; l++ {
			for r := 0; r < nr; r++ {
				if rng.Float64() < 0.4 {
					g.AddEdge(l, r)
				}
			}
		}
		size, match := g.MaxMatching()
		load := make([]int, nr)
		count := 0
		for _, r := range match {
			if r >= 0 {
				load[r]++
				count++
			}
		}
		if count != size {
			return false
		}
		for r, c := range load {
			if c > caps[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCapacityZero(t *testing.T) {
	g := NewCapacityGraph(2, []int{0})
	g.AddEdge(0, 0)
	g.AddEdge(1, 0)
	size, _ := g.MaxMatching()
	if size != 0 {
		t.Fatalf("size = %d, want 0 with zero capacity", size)
	}
}

func TestAddEdgePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGraph(2, 2).AddEdge(2, 0)
}
