// Package hadoopcodes is the public facade of this repository: a Go
// implementation and evaluation harness for the erasure codes with
// inherent double replication of Krishnan et al., "Evaluation of Codes
// with Inherent Double Replication for Hadoop" (USENIX HotStorage
// 2014).
//
// The package exports the core coding API (the pentagon and RAID+m
// codes by constructor, every registered code by name) and the on-disk
// store with its hot/cold tiering daemon. Every code meets the one
// Code contract: encode, decode, repair and degraded-read planning
// built on partial parities, none of it optional.
//
// Quick start:
//
//	code := hadoopcodes.NewPentagon()
//	symbols, err := code.Encode(dataBlocks) // 9 blocks in, 10 symbols out
//	plan, err := code.PlanRepair([]int{0, 1})
//	fmt.Println(plan.Bandwidth()) // 10 blocks, as in the paper
//
// The package examples are runnable end-to-end scenarios; cmd/repro
// regenerates the paper's tables and figures.
package hadoopcodes

import (
	// New and the store resolve codes by name, so all of them register.
	_ "repro/internal/code/heptlocal"
	"repro/internal/code/polygon"
	"repro/internal/code/raidm"
	_ "repro/internal/code/replication"
	_ "repro/internal/code/rs"
	"repro/internal/core"
)

// Code is a coding scheme applied stripe by stripe; core.Code is the
// whole contract: encode into caller buffers, decode, plan repairs,
// plan reads.
type Code = core.Code

// ReadPlanner is Code's degraded-read half: every Code is one.
type ReadPlanner = core.ReadPlanner

// OffCluster is the reader location for clients outside a stripe's
// nodes.
const OffCluster = core.OffCluster

// NewPentagon returns the paper's pentagon code: 9 data blocks + 1 XOR
// parity, each stored twice across 5 nodes (storage overhead 2.22x,
// tolerates any 2 node failures).
func NewPentagon() *polygon.Code { return polygon.New(5) }

// NewRAIDM returns the (m+1, m) RAID+mirroring baseline.
func NewRAIDM(m int) *raidm.Code { return raidm.New(m) }

// New constructs a registered code by name: "2-rep", "3-rep",
// "pentagon", "heptagon", "heptagon-local", "raid+m-10-9",
// "raid+m-12-11", "rs-14-10", "rs-9-6".
func New(name string) (Code, error) { return core.New(name) }

// StorageOverhead returns physical blocks stored per data block.
func StorageOverhead(c Code) float64 { return core.StorageOverhead(c) }

// MaterializeNodes lays encoded symbols onto simulated nodes.
func MaterializeNodes(c Code, symbols [][]byte) core.NodeContents {
	return core.MaterializeNodes(c, symbols)
}

// ExecuteRepair runs a repair plan against simulated node contents.
func ExecuteRepair(nc core.NodeContents, plan *core.RepairPlan, blockSize int) error {
	return core.ExecuteRepair(nc, plan, blockSize)
}
