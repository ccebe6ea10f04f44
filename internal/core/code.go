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
	"bytes"
	"errors"
	"fmt"

	"repro/internal/gf256"
)

// Code is a coding scheme applied independently to each stripe of a
// file, and the whole contract every code meets: encode a stripe into
// caller-provided buffers, decode it, plan a repair by transfer and plan
// a (degraded) read. A stripe holds DataSymbols() application blocks;
// encoding expands them to Symbols() stored symbols (the data symbols
// first, parities after), and Placement() lays the symbol replicas out
// over Nodes() distinct nodes.
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
	// vector, allocating the parities; every code's is Encode(c, data).
	Encode(data [][]byte) ([][]byte, error)
	// EncodeInto sets the first DataSymbols() entries of out, which has
	// Symbols() entries, to the data blocks themselves (the codes are
	// systematic: they alias, never copy) and fully overwrites the
	// remaining entries: buffers of the data block size that do not
	// alias the data. Callers go through Encode or EncodeWith, which
	// check data and build out.
	EncodeInto(data, out [][]byte) error
	// Decode reconstructs the k data blocks from the surviving symbols.
	// avail has length Symbols(); nil entries are erased. Decode fails
	// with an *ErasureError if the pattern is unrecoverable.
	Decode(avail [][]byte) ([][]byte, error)
	RepairPlanner
	ReadPlanner
}

// Encode is every code's Encode: it checks data once, allocates the
// parity symbols and fills them through c.EncodeInto.
func Encode(c Code, data [][]byte) ([][]byte, error) {
	size, err := checkEncodeInput(data, c.DataSymbols())
	if err != nil {
		return nil, err
	}
	out := make([][]byte, c.Symbols())
	for i := c.DataSymbols(); i < len(out); i++ {
		out[i] = make([]byte, size)
	}
	if err := c.EncodeInto(data, out); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeWith is Encode drawing the parity buffers from pool, whose size
// must be the data block size — the zero-allocation entry point of the
// pooled stripe pipeline. The returned release function recycles them:
// call it once the symbol buffers are no longer referenced.
func EncodeWith(c Code, pool *BlockPool, data [][]byte) (symbols [][]byte, release func(), err error) {
	size, err := checkEncodeInput(data, c.DataSymbols())
	if err != nil {
		return nil, nil, err
	}
	if size != pool.Size() {
		return nil, nil, fmt.Errorf("core: encode pool size %d != block size %d", pool.Size(), size)
	}
	k, n := c.DataSymbols(), c.Symbols()
	out := make([][]byte, n)
	for i := k; i < n; i++ {
		out[i] = pool.Get()
	}
	release = func() {
		for i := k; i < n; i++ {
			pool.Put(out[i])
		}
	}
	if err := c.EncodeInto(data, out); err != nil {
		release()
		return nil, nil, err
	}
	return out, release, nil
}

// EncodeXOR is EncodeInto for the single-parity codes (polygon,
// RAID+m): out[:k] aliases the k data blocks and out[k] becomes their
// XOR.
func EncodeXOR(data, out [][]byte) {
	copy(out, data)
	parity := out[len(data)]
	copy(parity, data[0])
	for _, d := range data[1:] {
		gf256.XorSlice(d, parity)
	}
}

// DecodeXOR is Decode for the single-parity codes: avail holds the k
// data symbols and then their XOR parity, and at most one of them may
// be erased, which the XOR of the others rebuilds.
func DecodeXOR(c Code, avail [][]byte) ([][]byte, error) {
	if len(avail) != c.Symbols() {
		return nil, fmt.Errorf("%s: want %d symbols, got %d", c.Name(), c.Symbols(), len(avail))
	}
	missing := -1
	for s, b := range avail {
		if b != nil {
			continue
		}
		if missing >= 0 {
			return nil, &ErasureError{
				Code: c.Name(), Missing: []int{missing, s},
				Reason: "more than one symbol lost",
			}
		}
		missing = s
	}
	k := c.DataSymbols()
	data := make([][]byte, k)
	copy(data, avail[:k])
	if missing >= 0 && missing < k {
		var rebuilt []byte
		for s, b := range avail {
			switch {
			case s == missing:
			case rebuilt == nil:
				rebuilt = bytes.Clone(b)
			default:
				gf256.XorSlice(b, rebuilt)
			}
		}
		data[missing] = rebuilt
	}
	return data, nil
}

// RepairPlanner is the repair half of Code: planning the exact network
// transfers needed to rebuild failed nodes, including repair-by-transfer
// copies and partial-parity aggregation.
type RepairPlanner interface {
	// PlanRepair returns a plan restoring every symbol replica stored on
	// the failed nodes. The replacement node for failed node i is node i
	// itself (in-place rebuild).
	PlanRepair(failed []int) (*RepairPlan, error)
}

// ReadPlanner is the read half of Code: planning how a map task obtains
// a data symbol when some nodes are down.
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

// checkEncodeInput validates that data has exactly k equal-size non-nil
// blocks, returning the block size.
func checkEncodeInput(data [][]byte, k int) (int, error) {
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
