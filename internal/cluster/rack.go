package cluster

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// Topology assigns cluster nodes to racks. The paper's Section 2.2
// notes that in a rack-aware HDFS deployment the heptagon-local code
// places its two heptagons and the global-parity node in three
// different racks, so a whole-rack failure stays within the code's
// fault tolerance and local repairs stay inside one rack.
type Topology struct {
	Racks  int
	RackOf []int // node -> rack
}

// UniformTopology spreads n nodes round-robin over the given number of
// racks.
func UniformTopology(nodes, racks int) Topology {
	if racks < 1 {
		panic(fmt.Sprintf("cluster: invalid rack count %d", racks))
	}
	t := Topology{Racks: racks, RackOf: make([]int, nodes)}
	for v := range t.RackOf {
		t.RackOf[v] = v % racks
	}
	return t
}

// RackNodes returns the nodes in each rack.
func (t Topology) RackNodes() [][]int {
	out := make([][]int, t.Racks)
	for v, r := range t.RackOf {
		out[r] = append(out[r], v)
	}
	return out
}

// RackAware is implemented by codes that prescribe how a stripe's
// nodes group into racks (stripe-local node index groups; each group
// should land in its own rack). The heptagon-local code returns
// {0..6}, {7..13}, {14}.
type RackAware interface {
	RackGroups() [][]int
}

// PlaceFileRackAware stripes a file like PlaceFile but honours rack
// constraints: a RackAware code gets each of its groups placed inside
// one distinct rack; any other code has each stripe's nodes spread
// over as many racks as possible (the HDFS default of not stacking
// replicas in one rack).
func PlaceFileRackAware(c core.Code, topo Topology, dataBlocks int, rng *rand.Rand) (*File, error) {
	if len(topo.RackOf) < c.Nodes() {
		return nil, fmt.Errorf("cluster: code %s needs %d nodes, cluster has %d", c.Name(), c.Nodes(), len(topo.RackOf))
	}
	if dataBlocks <= 0 {
		return nil, fmt.Errorf("cluster: dataBlocks must be positive")
	}
	f := &File{Code: c, Nodes: len(topo.RackOf)}
	p := c.Placement()
	rackNodes := topo.RackNodes()
	for len(f.Blocks) < dataBlocks {
		chosen, err := chooseRackAware(c, topo, rackNodes, rng)
		if err != nil {
			return nil, err
		}
		stripe := len(f.StripeNodes)
		f.StripeNodes = append(f.StripeNodes, chosen)
		for s := 0; s < c.DataSymbols() && len(f.Blocks) < dataBlocks; s++ {
			replicas := make([]int, len(p.SymbolNodes[s]))
			for i, v := range p.SymbolNodes[s] {
				replicas[i] = chosen[v]
			}
			f.Blocks = append(f.Blocks, Block{
				ID: len(f.Blocks), Stripe: stripe, Symbol: s, Replicas: replicas,
			})
		}
	}
	return f, nil
}

func chooseRackAware(c core.Code, topo Topology, rackNodes [][]int, rng *rand.Rand) ([]int, error) {
	chosen := make([]int, c.Nodes())
	if ra, ok := c.(RackAware); ok {
		groups := ra.RackGroups()
		if len(groups) > topo.Racks {
			return nil, fmt.Errorf("cluster: code %s needs %d racks, topology has %d",
				c.Name(), len(groups), topo.Racks)
		}
		rackOrder := rng.Perm(topo.Racks)
		ri := 0
		for _, group := range groups {
			// Find the next rack with enough nodes for the group.
			placed := false
			for ; ri < len(rackOrder); ri++ {
				nodes := rackNodes[rackOrder[ri]]
				if len(nodes) < len(group) {
					continue
				}
				perm := rng.Perm(len(nodes))
				for gi, localIdx := range group {
					chosen[localIdx] = nodes[perm[gi]]
				}
				ri++
				placed = true
				break
			}
			if !placed {
				return nil, fmt.Errorf("cluster: no rack with %d free nodes for %s", len(group), c.Name())
			}
		}
		return chosen, nil
	}
	// Default policy: deal stripe nodes across racks round-robin so no
	// two replicas of a symbol share a rack unless unavoidable.
	rackOrder := rng.Perm(topo.Racks)
	cursors := make([]int, topo.Racks)
	perms := make([][]int, topo.Racks)
	for r := range perms {
		perms[r] = rng.Perm(len(rackNodes[r]))
	}
	idx := 0
	for i := 0; i < c.Nodes(); {
		r := rackOrder[idx%len(rackOrder)]
		idx++
		if cursors[r] >= len(rackNodes[r]) {
			// Rack exhausted; if every rack is exhausted the cluster is
			// too small, which the size check above precludes.
			continue
		}
		chosen[i] = rackNodes[r][perms[r][cursors[r]]]
		cursors[r]++
		i++
	}
	return chosen, nil
}

// TrafficSplit divides repair traffic into intra-rack and cross-rack
// bytes for the given failed nodes, using each stripe's repair plan.
func (f *File) TrafficSplit(topo Topology, failed []int, blockBytes float64) (intra, cross float64, err error) {
	isDown := make(map[int]bool, len(failed))
	for _, v := range failed {
		isDown[v] = true
	}
	for _, chosen := range f.StripeNodes {
		var local []int
		for i, v := range chosen {
			if isDown[v] {
				local = append(local, i)
			}
		}
		if len(local) == 0 {
			continue
		}
		plan, err := f.Code.PlanRepair(local)
		if err != nil {
			return 0, 0, err
		}
		for _, tr := range plan.Transfers {
			from, to := chosen[tr.From], chosen[tr.To]
			if topo.RackOf[from] == topo.RackOf[to] {
				intra += blockBytes
			} else {
				cross += blockBytes
			}
		}
	}
	return intra, cross, nil
}
