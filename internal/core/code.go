// Package core defines the coding-scheme abstraction this repository is
// built around, together with repair and degraded-read planning, a plan
// executor used both by tests and by the cluster simulator, a code
// registry, and the file striper.
//
// The central idea of the paper is a family of erasure codes with
// inherent double replication: every stored symbol of a stripe exists as
// two exact replicas on two distinct nodes (except designated
// single-copy global parities), so MapReduce tasks read plain replicas
// exactly as under 2-way replication, while the code structure provides
// reliability close to or better than 3-way replication and cheap
// repairs through partial parities.
package core

import (
	"errors"
	"fmt"
)

// Code is a coding scheme applied independently to each stripe of a
// file. A stripe holds DataSymbols() application blocks; Encode expands
// them to Symbols() stored symbols (the data symbols first, parities
// after), and Placement() lays the symbol replicas out over Nodes()
// distinct nodes.
type Code interface {
	// Name identifies the scheme, e.g. "pentagon" or "3-rep".
	Name() string
	// DataSymbols returns k, the number of data blocks per stripe.
	DataSymbols() int
	// Symbols returns the number of distinct stored symbols per stripe
	// (data blocks plus parity blocks, each counted once regardless of
	// replication).
	Symbols() int
	// Nodes returns the code length n: the number of distinct nodes a
	// stripe spans.
	Nodes() int
	// Placement returns the replica layout of one stripe.
	Placement() Placement
	// FaultTolerance returns the largest f such that the stripe is
	// recoverable after ANY f node erasures.
	FaultTolerance() int
	// Encode expands k equal-size data blocks into the full symbol
	// vector. The first k outputs alias or equal the inputs (the codes
	// are systematic).
	Encode(data [][]byte) ([][]byte, error)
	// Decode reconstructs the k data blocks from the surviving symbols.
	// avail has length Symbols(); nil entries are erased. Decode fails
	// with an *ErasureError if the pattern is unrecoverable.
	Decode(avail [][]byte) ([][]byte, error)
}

// IntoEncoder is implemented by codes whose Encode can write parity
// symbols into caller-provided buffers — the zero-allocation entry
// point of the pooled stripe pipeline. out must have Symbols() entries:
// EncodeInto sets the first DataSymbols() entries to the data blocks
// themselves (systematic codes alias, never copy) and fully overwrites
// the remaining entries, which must be non-nil buffers of the data
// block size that do not alias the data.
type IntoEncoder interface {
	EncodeInto(data, out [][]byte) error
}

// EncodeWith encodes a stripe through EncodeInto when the code supports
// it, drawing parity buffers from pool; otherwise it falls back to
// Encode. The returned release function recycles the pooled parity
// buffers (it is a no-op after the fallback) — call it once the symbol
// buffers are no longer referenced.
func EncodeWith(c Code, pool *BlockPool, data [][]byte) (symbols [][]byte, release func(), err error) {
	ie, ok := c.(IntoEncoder)
	if !ok || pool == nil {
		out, err := c.Encode(data)
		return out, func() {}, err
	}
	k, n := c.DataSymbols(), c.Symbols()
	out := make([][]byte, n)
	for i := k; i < n; i++ {
		out[i] = pool.Get()
	}
	if err := ie.EncodeInto(data, out); err != nil {
		for i := k; i < n; i++ {
			pool.Put(out[i])
		}
		return nil, func() {}, err
	}
	return out, func() {
		for i := k; i < n; i++ {
			pool.Put(out[i])
		}
	}, nil
}

// RepairPlanner is implemented by codes that can plan the exact network
// transfers needed to rebuild failed nodes, including repair-by-transfer
// copies and partial-parity aggregation.
type RepairPlanner interface {
	// PlanRepair returns a plan restoring every symbol replica stored on
	// the failed nodes. The replacement node for failed node i is node i
	// itself (in-place rebuild).
	PlanRepair(failed []int) (*RepairPlan, error)
}

// ReadPlanner is implemented by codes that can plan degraded reads: how
// a map task obtains a data symbol when some nodes are down.
type ReadPlanner interface {
	// PlanRead plans delivery of the given data symbol to node at
	// (at == OffCluster for an external reader) while the listed nodes
	// are down. The plan minimizes network block transfers.
	PlanRead(symbol int, down []int, at int) (*ReadPlan, error)
}

// OffCluster is the pseudo-node for readers outside the stripe's nodes.
const OffCluster = -1

// Placement describes where the replicas of each symbol of a stripe
// live, in stripe-local node coordinates 0..Nodes()-1.
type Placement struct {
	// SymbolNodes[s] lists the nodes holding a replica of symbol s.
	SymbolNodes [][]int
	// NodeSymbols[v] lists the symbols stored on node v.
	NodeSymbols [][]int
}

// PlacementFromSymbolNodes derives the inverse NodeSymbols map.
func PlacementFromSymbolNodes(symbolNodes [][]int, nodes int) Placement {
	ns := make([][]int, nodes)
	for s, vs := range symbolNodes {
		for _, v := range vs {
			ns[v] = append(ns[v], s)
		}
	}
	return Placement{SymbolNodes: symbolNodes, NodeSymbols: ns}
}

// TotalBlocks returns the number of physical blocks a stripe occupies
// (symbol replicas summed).
func (p Placement) TotalBlocks() int {
	n := 0
	for _, vs := range p.SymbolNodes {
		n += len(vs)
	}
	return n
}

// StripeBlocks returns the physical blocks a shortened stripe occupies:
// one whose first live of k data symbols carry data, the rest being
// known zeros that are never stored. live == k is TotalBlocks.
func (p Placement) StripeBlocks(k, live int) int {
	n := p.TotalBlocks()
	for sym := live; sym < k; sym++ {
		n -= len(p.SymbolNodes[sym])
	}
	return n
}

// StorageOverhead returns the physical-blocks-per-data-block ratio of a
// code, the "storage overhead" column of Table 1.
func StorageOverhead(c Code) float64 {
	return float64(c.Placement().TotalBlocks()) / float64(c.DataSymbols())
}

// ErasureError reports an unrecoverable erasure pattern.
type ErasureError struct {
	Code    string
	Missing []int // erased symbols or nodes, per context
	Reason  string
}

// Error formats the erasure pattern and why it is unrecoverable.
func (e *ErasureError) Error() string {
	return fmt.Sprintf("%s: unrecoverable erasure %v: %s", e.Code, e.Missing, e.Reason)
}

// ErrBlockSize is returned when Encode/Decode inputs disagree on size.
var ErrBlockSize = errors.New("core: blocks have differing sizes")

// CheckEncodeInput validates that data has exactly k equal-size non-nil
// blocks, returning the block size.
func CheckEncodeInput(data [][]byte, k int) (int, error) {
	if len(data) != k {
		return 0, fmt.Errorf("core: encode needs %d data blocks, got %d", k, len(data))
	}
	if data[0] == nil {
		return 0, errors.New("core: nil data block")
	}
	size := len(data[0])
	for _, b := range data {
		if b == nil {
			return 0, errors.New("core: nil data block")
		}
		if len(b) != size {
			return 0, ErrBlockSize
		}
	}
	return size, nil
}
