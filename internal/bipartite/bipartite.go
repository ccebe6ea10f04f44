// Package bipartite provides bipartite graphs and maximum matching via
// Hopcroft-Karp, the benchmark algorithm the paper compares the delay
// scheduler against for map-task assignment (Section 3.2): tasks on the
// left, map slots on the right, edges to the nodes holding a replica of
// the task's block.
package bipartite

import "fmt"

// Graph is a bipartite graph with nLeft left vertices and nRight right
// vertices.
type Graph struct {
	nLeft, nRight int
	adj           [][]int
}

// NewGraph returns an empty bipartite graph.
func NewGraph(nLeft, nRight int) *Graph {
	if nLeft < 0 || nRight < 0 {
		panic(fmt.Sprintf("bipartite: invalid shape %dx%d", nLeft, nRight))
	}
	return &Graph{nLeft: nLeft, nRight: nRight, adj: make([][]int, nLeft)}
}

// AddEdge connects left vertex l to right vertex r. Duplicate edges are
// harmless.
func (g *Graph) AddEdge(l, r int) {
	if l < 0 || l >= g.nLeft || r < 0 || r >= g.nRight {
		panic(fmt.Sprintf("bipartite: edge (%d,%d) out of range %dx%d", l, r, g.nLeft, g.nRight))
	}
	g.adj[l] = append(g.adj[l], r)
}

const inf = int(^uint(0) >> 1)

// MaxMatching computes a maximum matching with the Hopcroft-Karp
// algorithm in O(E sqrt(V)). It returns the matching size and, for each
// left vertex, its matched right vertex or -1.
func (g *Graph) MaxMatching() (int, []int) {
	matchL := make([]int, g.nLeft)
	matchR := make([]int, g.nRight)
	for i := range matchL {
		matchL[i] = -1
	}
	for i := range matchR {
		matchR[i] = -1
	}
	dist := make([]int, g.nLeft)
	queue := make([]int, 0, g.nLeft)

	bfs := func() bool {
		queue = queue[:0]
		for l := 0; l < g.nLeft; l++ {
			if matchL[l] == -1 {
				dist[l] = 0
				queue = append(queue, l)
			} else {
				dist[l] = inf
			}
		}
		found := false
		for qi := 0; qi < len(queue); qi++ {
			l := queue[qi]
			for _, r := range g.adj[l] {
				nl := matchR[r]
				if nl == -1 {
					found = true
				} else if dist[nl] == inf {
					dist[nl] = dist[l] + 1
					queue = append(queue, nl)
				}
			}
		}
		return found
	}

	var dfs func(l int) bool
	dfs = func(l int) bool {
		for _, r := range g.adj[l] {
			nl := matchR[r]
			if nl == -1 || (dist[nl] == dist[l]+1 && dfs(nl)) {
				matchL[l] = r
				matchR[r] = l
				return true
			}
		}
		dist[l] = inf
		return false
	}

	size := 0
	for bfs() {
		for l := 0; l < g.nLeft; l++ {
			if matchL[l] == -1 && dfs(l) {
				size++
			}
		}
	}
	return size, matchL
}

// CapacityGraph is a bipartite graph whose right vertices have integer
// capacities (a node with mu map slots accepts up to mu tasks). It is
// reduced to a unit graph by splitting each right vertex into capacity
// copies.
type CapacityGraph struct {
	nLeft int
	caps  []int
	adj   [][]int
}

// NewCapacityGraph returns an empty graph with the given right-side
// capacities.
func NewCapacityGraph(nLeft int, caps []int) *CapacityGraph {
	for i, c := range caps {
		if c < 0 {
			panic(fmt.Sprintf("bipartite: negative capacity %d at %d", c, i))
		}
	}
	return &CapacityGraph{nLeft: nLeft, caps: append([]int(nil), caps...), adj: make([][]int, nLeft)}
}

// AddEdge connects left vertex l to right vertex r.
func (g *CapacityGraph) AddEdge(l, r int) {
	if l < 0 || l >= g.nLeft || r < 0 || r >= len(g.caps) {
		panic(fmt.Sprintf("bipartite: edge (%d,%d) out of range", l, r))
	}
	g.adj[l] = append(g.adj[l], r)
}

// MaxMatching returns the maximum number of left vertices that can be
// assigned to a right vertex without exceeding capacities, and the
// assignment (right vertex per left vertex, -1 if unassigned).
func (g *CapacityGraph) MaxMatching() (int, []int) {
	// Split right vertices into unit slots.
	offset := make([]int, len(g.caps)+1)
	for i, c := range g.caps {
		offset[i+1] = offset[i] + c
	}
	unit := NewGraph(g.nLeft, offset[len(g.caps)])
	for l, rs := range g.adj {
		for _, r := range rs {
			for s := offset[r]; s < offset[r+1]; s++ {
				unit.AddEdge(l, s)
			}
		}
	}
	size, matchL := unit.MaxMatching()
	out := make([]int, g.nLeft)
	for l := range out {
		out[l] = -1
		if matchL[l] >= 0 {
			// Binary search the owning right vertex.
			lo, hi := 0, len(g.caps)-1
			for lo < hi {
				mid := (lo + hi) / 2
				if offset[mid+1] <= matchL[l] {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			out[l] = lo
		}
	}
	return size, out
}
