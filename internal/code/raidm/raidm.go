// Package raidm implements the (m+1, m) RAID+mirroring scheme the paper
// compares against: m data blocks plus one XOR parity block, with every
// one of the m+1 blocks mirrored, spread over 2(m+1) distinct nodes
// (one block per node).
//
// The paper evaluates the (10,9) and (12,11) instances. Like the
// pentagon-family codes, RAID+m has inherent double replication; unlike
// them it spreads a stripe over many nodes (code length 2(m+1)), which
// is the feasibility drawback Table 1 highlights, and a degraded read of
// a doubly-lost block costs m block transfers because the scheme has no
// partial parities.
package raidm

import (
	"fmt"

	"repro/internal/core"
)

// Code is an (m+1, m) RAID+mirroring scheme.
type Code struct {
	m         int
	placement core.Placement
}

var _ core.Code = (*Code)(nil)

// New returns the (m+1, m) RAID+m code. m must be at least 2.
func New(m int) *Code {
	if m < 2 {
		panic(fmt.Sprintf("raidm: invalid m %d", m))
	}
	symbolNodes := make([][]int, m+1)
	for s := range symbolNodes {
		symbolNodes[s] = []int{2 * s, 2*s + 1}
	}
	return &Code{
		m:         m,
		placement: core.PlacementFromSymbolNodes(symbolNodes, 2*(m+1)),
	}
}

func init() {
	core.Register("raid+m-10-9", func() core.Code { return New(9) })
	core.Register("raid+m-12-11", func() core.Code { return New(11) })
}

// Name returns "(m+1,m) RAID+m".
func (c *Code) Name() string { return fmt.Sprintf("(%d,%d) RAID+m", c.m+1, c.m) }

// DataSymbols returns m.
func (c *Code) DataSymbols() int { return c.m }

// Symbols returns m+1 (data plus the XOR parity).
func (c *Code) Symbols() int { return c.m + 1 }

// Nodes returns 2(m+1): every block replica gets its own node.
func (c *Code) Nodes() int { return 2 * (c.m + 1) }

// Placement puts symbol s on nodes 2s and 2s+1.
func (c *Code) Placement() core.Placement { return c.placement }

// FaultTolerance returns 3: losing two full symbols requires four node
// failures, and a single fully-lost symbol is recoverable from the XOR
// parity equation.
func (c *Code) FaultTolerance() int { return 3 }

// Encode appends the XOR parity to the data blocks.
func (c *Code) Encode(data [][]byte) ([][]byte, error) { return core.Encode(c, data) }

// EncodeInto computes the XOR parity into out[m], aliasing the data
// blocks into out[:m].
func (c *Code) EncodeInto(data, out [][]byte) error {
	core.EncodeXOR(data, out)
	return nil
}

// Decode reconstructs the data from the surviving symbols: at most one
// missing symbol can be rebuilt from the XOR equation.
func (c *Code) Decode(avail [][]byte) ([][]byte, error) { return core.DecodeXOR(c, avail) }

// mirror returns the node holding the other replica of the symbol on
// node v.
func mirror(v int) int { return v ^ 1 }

// symbolOf returns the symbol stored on node v.
func symbolOf(v int) int { return v / 2 }

// PlanRepair rebuilds the failed nodes. Replicas whose mirror survives
// are copied; a doubly-lost symbol is reconstructed by XORing the other
// m symbols (m transfers — RAID+m has no partial parities) and then
// copied to its second replacement.
func (c *Code) PlanRepair(failed []int) (*core.RepairPlan, error) {
	down := make(map[int]bool, len(failed))
	for _, f := range failed {
		if f < 0 || f >= c.Nodes() {
			return nil, fmt.Errorf("raidm: invalid node %d", f)
		}
		down[f] = true
	}
	// Count fully lost symbols first.
	var fullyLost []int
	for _, f := range failed {
		if down[mirror(f)] && f < mirror(f) {
			fullyLost = append(fullyLost, symbolOf(f))
		}
	}
	if len(fullyLost) > 1 {
		return nil, &core.ErasureError{Code: c.Name(), Missing: fullyLost, Reason: "two symbols fully lost"}
	}
	plan := &core.RepairPlan{Failed: append([]int(nil), failed...)}
	for _, f := range failed {
		s := symbolOf(f)
		if !down[mirror(f)] {
			ti := len(plan.Transfers)
			plan.Transfers = append(plan.Transfers, core.Transfer{
				From: mirror(f), To: f, Terms: []core.Term{{Symbol: s, Coeff: 1}},
			})
			plan.Recoveries = append(plan.Recoveries, core.Recovery{Node: f, Symbol: s, Sources: []int{ti}})
		}
	}
	// Reconstruct the doubly-lost symbol, if any, at its lower-numbered
	// replacement, then copy it across to the mirror.
	if len(fullyLost) == 1 {
		s := fullyLost[0]
		r1, r2 := 2*s, 2*s+1
		var sources []int
		for other := 0; other <= c.m; other++ {
			if other == s {
				continue
			}
			src := 2 * other
			if down[src] {
				src = mirror(src) // mirror must be up: only one symbol fully lost
			}
			sources = append(sources, len(plan.Transfers))
			plan.Transfers = append(plan.Transfers, core.Transfer{
				From: src, To: r1, Terms: []core.Term{{Symbol: other, Coeff: 1}},
			})
		}
		plan.Recoveries = append(plan.Recoveries, core.Recovery{Node: r1, Symbol: s, Sources: sources})
		copyIdx := len(plan.Transfers)
		plan.Transfers = append(plan.Transfers, core.Transfer{
			From: r1, To: r2, Terms: []core.Term{{Symbol: s, Coeff: 1}},
		})
		plan.Recoveries = append(plan.Recoveries, core.Recovery{Node: r2, Symbol: s, Sources: []int{copyIdx}})
	}
	return plan, nil
}

// PlanRead reads a data symbol: locally if the reader holds it, from the
// surviving mirror if one is up, and otherwise by the full-stripe XOR
// reconstruction costing m block transfers.
func (c *Code) PlanRead(symbol int, down []int, at int) (*core.ReadPlan, error) {
	if symbol < 0 || symbol >= c.m {
		return nil, fmt.Errorf("raidm: invalid data symbol %d", symbol)
	}
	isDown := make(map[int]bool, len(down))
	for _, d := range down {
		isDown[d] = true
	}
	if at != core.OffCluster && !isDown[at] && symbolOf(at) == symbol {
		return &core.ReadPlan{Symbol: symbol, Local: true}, nil
	}
	for _, v := range c.placement.SymbolNodes[symbol] {
		if !isDown[v] {
			return &core.ReadPlan{
				Symbol: symbol,
				Transfers: []core.Transfer{
					{From: v, To: at, Terms: []core.Term{{Symbol: symbol, Coeff: 1}}},
				},
			}, nil
		}
	}
	// Degraded read: XOR of the other m symbols.
	plan := &core.ReadPlan{Symbol: symbol}
	for other := 0; other <= c.m; other++ {
		if other == symbol {
			continue
		}
		src := -1
		for _, v := range c.placement.SymbolNodes[other] {
			if !isDown[v] && v != at {
				src = v
				break
			}
		}
		if src < 0 {
			// The reader itself may hold the block.
			if at != core.OffCluster && symbolOf(at) == other && !isDown[at] {
				src = at
			} else {
				return nil, &core.ErasureError{
					Code: c.Name(), Missing: []int{symbol, other},
					Reason: "two symbols unavailable",
				}
			}
		}
		plan.Transfers = append(plan.Transfers, core.Transfer{
			From: src, To: at, Terms: []core.Term{{Symbol: other, Coeff: 1}},
		})
	}
	return plan, nil
}
