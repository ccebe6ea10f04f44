// Package replication implements r-way replication (the paper's 2-rep
// and 3-rep baselines) as a Code.
//
// A replication "stripe" is a single data block stored as r exact
// replicas on r distinct nodes, matching how HDFS replicates each block
// independently. Repair is a plain replica copy; a degraded read falls
// back to any surviving replica.
package replication

import (
	"fmt"

	"repro/internal/core"
)

// Code is an r-way replication scheme.
type Code struct {
	r         int
	placement core.Placement
}

var _ core.Code = (*Code)(nil)

// New returns an r-way replication code. r must be at least 1.
func New(r int) *Code {
	if r < 1 {
		panic(fmt.Sprintf("replication: invalid factor %d", r))
	}
	nodes := make([]int, r)
	for i := range nodes {
		nodes[i] = i
	}
	return &Code{
		r:         r,
		placement: core.PlacementFromSymbolNodes([][]int{nodes}, r),
	}
}

func init() {
	core.Register("2-rep", func() core.Code { return New(2) })
	core.Register("3-rep", func() core.Code { return New(3) })
}

// Name returns "<r>-rep".
func (c *Code) Name() string { return fmt.Sprintf("%d-rep", c.r) }

// DataSymbols returns 1: replication stores one block per stripe.
func (c *Code) DataSymbols() int { return 1 }

// Symbols returns 1.
func (c *Code) Symbols() int { return 1 }

// Nodes returns the replication factor.
func (c *Code) Nodes() int { return c.r }

// Placement places the single symbol on all r nodes.
func (c *Code) Placement() core.Placement { return c.placement }

// FaultTolerance returns r-1.
func (c *Code) FaultTolerance() int { return c.r - 1 }

// Encode returns the single data block unchanged.
func (c *Code) Encode(data [][]byte) ([][]byte, error) { return core.Encode(c, data) }

// EncodeInto aliases the single data block into out[0]; replication has
// no parity to compute.
func (c *Code) EncodeInto(data, out [][]byte) error {
	out[0] = data[0]
	return nil
}

// Decode returns the block if any replica survives.
func (c *Code) Decode(avail [][]byte) ([][]byte, error) {
	if len(avail) != 1 {
		return nil, fmt.Errorf("replication: want 1 symbol, got %d", len(avail))
	}
	if avail[0] == nil {
		return nil, &core.ErasureError{Code: c.Name(), Missing: []int{0}, Reason: "all replicas lost"}
	}
	return [][]byte{avail[0]}, nil
}

// PlanRepair copies the block from any surviving replica to each failed
// node.
func (c *Code) PlanRepair(failed []int) (*core.RepairPlan, error) {
	down := make(map[int]bool, len(failed))
	for _, f := range failed {
		if f < 0 || f >= c.r {
			return nil, fmt.Errorf("replication: invalid node %d", f)
		}
		down[f] = true
	}
	src := -1
	for v := 0; v < c.r; v++ {
		if !down[v] {
			src = v
			break
		}
	}
	if src < 0 {
		return nil, &core.ErasureError{Code: c.Name(), Missing: failed, Reason: "all replicas lost"}
	}
	plan := &core.RepairPlan{Failed: append([]int(nil), failed...)}
	for _, f := range failed {
		ti := len(plan.Transfers)
		plan.Transfers = append(plan.Transfers, core.Transfer{
			From: src, To: f, Terms: []core.Term{{Symbol: 0, Coeff: 1}},
		})
		plan.Recoveries = append(plan.Recoveries, core.Recovery{
			Node: f, Symbol: 0, Sources: []int{ti},
		})
	}
	return plan, nil
}

// PlanRead reads the block locally if possible, otherwise copies it from
// any surviving replica.
func (c *Code) PlanRead(symbol int, down []int, at int) (*core.ReadPlan, error) {
	if symbol != 0 {
		return nil, fmt.Errorf("replication: invalid symbol %d", symbol)
	}
	isDown := make(map[int]bool, len(down))
	for _, d := range down {
		isDown[d] = true
	}
	if at != core.OffCluster && at < c.r && !isDown[at] {
		return &core.ReadPlan{Symbol: 0, Local: true}, nil
	}
	for v := 0; v < c.r; v++ {
		if !isDown[v] {
			return &core.ReadPlan{
				Symbol: 0,
				Transfers: []core.Transfer{
					{From: v, To: at, Terms: []core.Term{{Symbol: 0, Coeff: 1}}},
				},
			}, nil
		}
	}
	return nil, &core.ErasureError{Code: c.Name(), Missing: down, Reason: "all replicas down"}
}
