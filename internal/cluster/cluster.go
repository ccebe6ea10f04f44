// Package cluster models the HDFS side of the paper's test beds: a
// single-rack cluster of data nodes, files striped over random node
// subsets by a coding scheme (as Facebook's HDFS-RAID module would lay
// them out), node failures, block reads — local, remote-copy, or
// degraded partial-parity reads — and RaidNode-style repair traffic
// accounting.
package cluster

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// Config describes a simulated cluster (the paper's set-up 1 and 2).
type Config struct {
	Nodes       int
	MapSlots    int
	ReduceSlots int
	BlockBytes  float64
	NetMBps     float64 // per-NIC bandwidth, MB/s
}

// Setup1 is the paper's first test bed: 25 dual-core nodes, 2 map + 1
// reduce slots, 128 MB blocks, shared gigabit-class LAN.
func Setup1() Config {
	return Config{Nodes: 25, MapSlots: 2, ReduceSlots: 1, BlockBytes: 128 * MB, NetMBps: 40}
}

// Setup2 is the second test bed: 9 server-class nodes, 4 map + 2 reduce
// slots, 512 MB blocks.
func Setup2() Config {
	return Config{Nodes: 9, MapSlots: 4, ReduceSlots: 2, BlockBytes: 512 * MB, NetMBps: 40}
}

// MB is one megabyte in bytes.
const MB = 1024 * 1024

// GB is one gigabyte in bytes.
const GB = 1024 * MB

// Block is one data block of a placed file.
type Block struct {
	ID       int
	Stripe   int
	Symbol   int // stripe-local data symbol index
	Replicas []int
}

// File is a file striped across the cluster by a coding scheme.
type File struct {
	Code        core.Code
	Nodes       int
	Blocks      []Block
	StripeNodes [][]int // stripe -> chosen cluster nodes (code-local order)
}

// PlaceFile stripes a file of dataBlocks data blocks over a cluster of
// the given size, choosing a fresh uniform node subset per stripe. The
// final stripe is truncated: only its first blocks carry map tasks, but
// it is still fully placed.
func PlaceFile(c core.Code, nodes, dataBlocks int, rng *rand.Rand) (*File, error) {
	if c.Nodes() > nodes {
		return nil, fmt.Errorf("cluster: code %s needs %d nodes, cluster has %d", c.Name(), c.Nodes(), nodes)
	}
	if dataBlocks <= 0 {
		return nil, fmt.Errorf("cluster: dataBlocks must be positive")
	}
	f := &File{Code: c, Nodes: nodes}
	p := c.Placement()
	for len(f.Blocks) < dataBlocks {
		chosen := rng.Perm(nodes)[:c.Nodes()]
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

// Fetch is one block-sized payload arriving over the network during a
// read.
type Fetch struct {
	From int // cluster node
}

// ReadPlan describes how node `at` obtains block id when the nodes for
// which down() is true are unavailable. Local is true when at holds a
// live replica (no fetches). A plain remote read has one fetch; a
// degraded read of a doubly-lost block has several partial-parity
// fetches (n-2 for the polygon codes) — still far fewer than RAID+m
// would need.
func (f *File) ReadPlan(blockID int, down func(int) bool, at int) (fetches []Fetch, local bool, err error) {
	if blockID < 0 || blockID >= len(f.Blocks) {
		return nil, false, fmt.Errorf("cluster: invalid block %d", blockID)
	}
	b := f.Blocks[blockID]
	chosen := f.StripeNodes[b.Stripe]

	// Map cluster-node view into stripe-local coordinates.
	localIdx := make(map[int]int, len(chosen))
	for i, v := range chosen {
		localIdx[v] = i
	}
	var downLocal []int
	for i, v := range chosen {
		if down(v) {
			downLocal = append(downLocal, i)
		}
	}
	localAt := core.OffCluster
	if i, ok := localIdx[at]; ok && !down(at) {
		localAt = i
	}
	plan, err := f.Code.PlanRead(b.Symbol, downLocal, localAt)
	if err != nil {
		return nil, false, err
	}
	if plan.Local {
		return nil, true, nil
	}
	for _, tr := range plan.Transfers {
		fetches = append(fetches, Fetch{From: chosen[tr.From]})
	}
	return fetches, false, nil
}
