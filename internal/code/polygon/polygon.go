// Package polygon implements the complete-graph repair-by-transfer
// minimum-bandwidth regenerating (MBR) codes of Shah et al., the family
// the paper's pentagon (n=5) and heptagon (n=7) codes belong to.
//
// For n nodes, the stripe has E = n(n-1)/2 distinct symbols, one per
// edge of the complete graph K_n: E-1 data blocks plus one XOR parity
// over the data. Each symbol is stored on the two nodes its edge
// connects, so every node holds n-1 blocks and every symbol is
// inherently replicated twice.
//
// The structure yields three properties the paper leans on:
//
//   - any n-2 nodes suffice to decode (2-node fault tolerance);
//   - a single failed node is repaired purely by transfer: each
//     neighbour copies back the one block it shares with the failed
//     node (n-1 block transfers, no computation);
//   - after a 2-node failure the one doubly-lost symbol is rebuilt from
//     n-2 partial parities, each computed inside a surviving node, so a
//     pentagon 2-node repair moves 10 blocks total and a degraded read
//     of a doubly-lost block moves only n-2 = 3 blocks (versus m = 9
//     for (10,9) RAID+m).
package polygon

import (
	"fmt"

	"repro/internal/core"
)

// Code is the K_n repair-by-transfer MBR code.
type Code struct {
	n         int // nodes
	e         int // symbols = n(n-1)/2
	name      string
	edges     [][2]int // symbol -> (i, j), i < j
	edgeID    [][]int  // (i, j) -> symbol
	placement core.Placement
}

var _ core.Code = (*Code)(nil)

// New returns the K_n code. n must be at least 3. Names: n=5 is
// "pentagon", n=7 is "heptagon", otherwise "polygon-<n>".
func New(n int) *Code {
	if n < 3 {
		panic(fmt.Sprintf("polygon: invalid n %d", n))
	}
	e := n * (n - 1) / 2
	c := &Code{n: n, e: e}
	switch n {
	case 5:
		c.name = "pentagon"
	case 7:
		c.name = "heptagon"
	default:
		c.name = fmt.Sprintf("polygon-%d", n)
	}
	c.edges = make([][2]int, 0, e)
	c.edgeID = make([][]int, n)
	for i := range c.edgeID {
		c.edgeID[i] = make([]int, n)
		for j := range c.edgeID[i] {
			c.edgeID[i][j] = -1
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			id := len(c.edges)
			c.edges = append(c.edges, [2]int{i, j})
			c.edgeID[i][j] = id
			c.edgeID[j][i] = id
		}
	}
	symbolNodes := make([][]int, e)
	for s, ij := range c.edges {
		symbolNodes[s] = []int{ij[0], ij[1]}
	}
	c.placement = core.PlacementFromSymbolNodes(symbolNodes, n)
	return c
}

func init() {
	core.Register("pentagon", func() core.Code { return New(5) })
	core.Register("heptagon", func() core.Code { return New(7) })
}

// Name returns the code's name.
func (c *Code) Name() string { return c.name }

// DataSymbols returns n(n-1)/2 - 1 (9 for the pentagon, 20 for the
// heptagon).
func (c *Code) DataSymbols() int { return c.e - 1 }

// Symbols returns n(n-1)/2; the last symbol is the XOR parity.
func (c *Code) Symbols() int { return c.e }

// ParitySymbol returns the index of the XOR parity symbol (the edge
// between the two highest-numbered nodes).
func (c *Code) ParitySymbol() int { return c.e - 1 }

// Nodes returns n.
func (c *Code) Nodes() int { return c.n }

// Placement puts each edge symbol on its two endpoint nodes; every node
// stores n-1 symbols.
func (c *Code) Placement() core.Placement { return c.placement }

// FaultTolerance returns 2: any two node failures fully erase exactly
// one symbol, which the XOR parity equation recovers.
func (c *Code) FaultTolerance() int { return 2 }

// Edge returns the endpoints (i < j) of symbol s.
func (c *Code) Edge(s int) (int, int) { return c.edges[s][0], c.edges[s][1] }

// EdgeSymbol returns the symbol stored on the edge between nodes i and
// j, or -1 if i == j.
func (c *Code) EdgeSymbol(i, j int) int { return c.edgeID[i][j] }

// Encode copies the data blocks onto edges 0..E-2 and computes the XOR
// parity for the final edge.
func (c *Code) Encode(data [][]byte) ([][]byte, error) { return core.Encode(c, data) }

// EncodeInto computes the XOR parity into out[E-1], aliasing the data
// blocks into out[:E-1].
func (c *Code) EncodeInto(data, out [][]byte) error {
	core.EncodeXOR(data, out)
	return nil
}

// Decode reconstructs the data blocks. At most one missing symbol is
// recoverable (via the XOR equation); two or more missing symbols is
// exactly the pattern left by three or more node failures and fails.
func (c *Code) Decode(avail [][]byte) ([][]byte, error) { return core.DecodeXOR(c, avail) }

// PlanRepair rebuilds one or two failed nodes.
//
// One failure: pure repair-by-transfer — each surviving neighbour copies
// the shared edge block back (n-1 transfers).
//
// Two failures: the n-2 singly-lost edges of each failed node are copied
// from their surviving endpoints (2(n-2) transfers); the doubly-lost
// shared edge is rebuilt on the first replacement from n-2 partial
// parities computed inside the survivors, then copied to the second
// replacement. Total bandwidth 3(n-2)+1 — 10 blocks for the pentagon,
// matching Section 2.1 of the paper.
func (c *Code) PlanRepair(failed []int) (*core.RepairPlan, error) {
	seen := make(map[int]bool, len(failed))
	for _, f := range failed {
		if f < 0 || f >= c.n {
			return nil, fmt.Errorf("%s: invalid node %d", c.name, f)
		}
		if seen[f] {
			return nil, fmt.Errorf("%s: duplicate failed node %d", c.name, f)
		}
		seen[f] = true
	}
	switch len(failed) {
	case 0:
		return &core.RepairPlan{}, nil
	case 1:
		return c.planSingleRepair(failed[0]), nil
	case 2:
		return c.planDoubleRepair(failed[0], failed[1]), nil
	default:
		return nil, &core.ErasureError{
			Code: c.name, Missing: failed,
			Reason: fmt.Sprintf("%d node failures exceed fault tolerance 2", len(failed)),
		}
	}
}

func (c *Code) planSingleRepair(f int) *core.RepairPlan {
	plan := &core.RepairPlan{Failed: []int{f}}
	for u := 0; u < c.n; u++ {
		if u == f {
			continue
		}
		s := c.edgeID[f][u]
		ti := len(plan.Transfers)
		plan.Transfers = append(plan.Transfers, core.Transfer{
			From: u, To: f, Terms: []core.Term{{Symbol: s, Coeff: 1}},
		})
		plan.Recoveries = append(plan.Recoveries, core.Recovery{Node: f, Symbol: s, Sources: []int{ti}})
	}
	return plan
}

func (c *Code) planDoubleRepair(f1, f2 int) *core.RepairPlan {
	plan := &core.RepairPlan{Failed: []int{f1, f2}}
	shared := c.edgeID[f1][f2]

	// Copy every singly-lost edge back from its surviving endpoint.
	for _, f := range []int{f1, f2} {
		other := f1 + f2 - f
		for u := 0; u < c.n; u++ {
			if u == f || u == other {
				continue
			}
			s := c.edgeID[f][u]
			ti := len(plan.Transfers)
			plan.Transfers = append(plan.Transfers, core.Transfer{
				From: u, To: f, Terms: []core.Term{{Symbol: s, Coeff: 1}},
			})
			plan.Recoveries = append(plan.Recoveries, core.Recovery{Node: f, Symbol: s, Sources: []int{ti}})
		}
	}

	// Partial parities for the doubly-lost shared edge: each survivor u
	// XORs its two failed-incident edges with its share of the
	// survivor-survivor edges (oriented so each is counted exactly
	// once); the XOR of all partials is the shared edge because the XOR
	// of all E symbols is zero.
	var partials []int
	for _, tr := range c.PartialParityTransfers(f1, f2, f1) {
		partials = append(partials, len(plan.Transfers))
		plan.Transfers = append(plan.Transfers, tr)
	}
	plan.Recoveries = append(plan.Recoveries, core.Recovery{Node: f1, Symbol: shared, Sources: partials})

	// Copy the rebuilt shared edge to the second replacement.
	copyIdx := len(plan.Transfers)
	plan.Transfers = append(plan.Transfers, core.Transfer{
		From: f1, To: f2, Terms: []core.Term{{Symbol: shared, Coeff: 1}},
	})
	plan.Recoveries = append(plan.Recoveries, core.Recovery{Node: f2, Symbol: shared, Sources: []int{copyIdx}})
	return plan
}

// PartialParityTransfers returns the n-2 partial-parity transfers that
// deliver the doubly-lost edge (f1, f2) to node dst: one per surviving
// node, each a within-node XOR whose overall XOR equals the lost
// symbol.
func (c *Code) PartialParityTransfers(f1, f2, dst int) []core.Transfer {
	var survivors []int
	for u := 0; u < c.n; u++ {
		if u != f1 && u != f2 {
			survivors = append(survivors, u)
		}
	}
	transfers := make([]core.Transfer, 0, len(survivors))
	for ai, u := range survivors {
		terms := []core.Term{
			{Symbol: c.edgeID[u][f1], Coeff: 1},
			{Symbol: c.edgeID[u][f2], Coeff: 1},
		}
		// Orientation: survivor-survivor edge (survivors[a], survivors[b])
		// with a < b is assigned to survivors[a].
		for bi := ai + 1; bi < len(survivors); bi++ {
			terms = append(terms, core.Term{Symbol: c.edgeID[u][survivors[bi]], Coeff: 1})
		}
		transfers = append(transfers, core.Transfer{From: u, To: dst, Terms: terms})
	}
	return transfers
}

// PlanRead delivers a data symbol to node at. If both endpoints of the
// symbol's edge are down, the read costs only n-2 partial-parity blocks
// — the on-the-fly repair advantage of Section 3.1.
func (c *Code) PlanRead(symbol int, down []int, at int) (*core.ReadPlan, error) {
	if symbol < 0 || symbol >= c.DataSymbols() {
		return nil, fmt.Errorf("%s: invalid data symbol %d", c.name, symbol)
	}
	isDown := make(map[int]bool, len(down))
	for _, d := range down {
		if d < 0 || d >= c.n {
			return nil, fmt.Errorf("%s: invalid down node %d", c.name, d)
		}
		isDown[d] = true
	}
	i, j := c.Edge(symbol)
	if at != core.OffCluster && !isDown[at] && (at == i || at == j) {
		return &core.ReadPlan{Symbol: symbol, Local: true}, nil
	}
	for _, v := range []int{i, j} {
		if !isDown[v] {
			return &core.ReadPlan{
				Symbol: symbol,
				Transfers: []core.Transfer{
					{From: v, To: at, Terms: []core.Term{{Symbol: symbol, Coeff: 1}}},
				},
			}, nil
		}
	}
	// Both replicas down: partial-parity degraded read. All other nodes
	// must be up, otherwise the stripe has >2 failures.
	for u := 0; u < c.n; u++ {
		if u != i && u != j && isDown[u] {
			return nil, &core.ErasureError{
				Code: c.name, Missing: down,
				Reason: "more than two nodes down",
			}
		}
	}
	return &core.ReadPlan{
		Symbol:    symbol,
		Transfers: c.PartialParityTransfers(i, j, at),
	}, nil
}
