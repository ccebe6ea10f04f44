package core

import (
	"fmt"

	"repro/internal/gf256"
)

// Term is one component of a payload computed at a source node:
// Coeff * symbol, over GF(2^8). For the XOR-only codes every
// coefficient is 1.
type Term struct {
	Symbol int
	Coeff  byte
}

// Transfer moves one block-size payload from node From to node To. The
// payload is the GF(2^8) combination of the listed terms, computed at
// the source from symbols the source holds at execution time ("partial
// parity"). A single-term transfer with coefficient 1 is a plain block
// copy.
type Transfer struct {
	From, To int
	Terms    []Term
}

// String renders the transfer as "Nfrom->Nto [terms]" for plan dumps.
func (t Transfer) String() string {
	return fmt.Sprintf("N%d->N%d %v", t.From, t.To, t.Terms)
}

// Recovery reconstructs one symbol replica at a node by combining
// received payloads: symbol = sum Coeffs[i] * payload(Sources[i]).
// Sources index into the plan's Transfers. A nil Coeffs means all-ones
// (plain XOR).
type Recovery struct {
	Node    int
	Symbol  int
	Sources []int
	Coeffs  []byte
	// Scratch marks a temporary reconstruction: the symbol is rebuilt at
	// this node only to be forwarded elsewhere and is dropped once the
	// plan completes, keeping the final layout equal to the code's
	// placement.
	Scratch bool
}

// RepairPlan is the full recipe for rebuilding one or more failed nodes
// of a stripe. Transfers may depend on earlier recoveries (a symbol
// rebuilt on a replacement node can then be copied onward), so execution
// resolves dependencies iteratively.
type RepairPlan struct {
	Failed     []int
	Transfers  []Transfer
	Recoveries []Recovery
}

// Bandwidth returns the network cost of the plan in block-units: one
// unit per transfer, the metric the paper calls repair bandwidth.
func (p *RepairPlan) Bandwidth() int { return len(p.Transfers) }

// ReadPlan is the recipe for a degraded (or ordinary) read of one data
// symbol: payloads are delivered to the reader, which combines them as
// symbol = sum Coeffs[i]*payload_i. If Local is true the reader already
// holds a replica and Transfers is empty.
type ReadPlan struct {
	Symbol    int
	Local     bool
	Transfers []Transfer
	Coeffs    []byte // nil = all-ones XOR
}

// Bandwidth returns the network cost of the read in block-units.
// Transfers whose source is the reading node itself are local and free.
func (p *ReadPlan) Bandwidth() int {
	n := 0
	for _, t := range p.Transfers {
		if t.From != t.To {
			n++
		}
	}
	return n
}

// NodeContents models the per-node symbol storage of one stripe:
// contents[v][s] is node v's replica of symbol s.
type NodeContents []map[int][]byte

// MaterializeNodes lays encoded symbols out onto nodes according to the
// code's placement, producing the initial NodeContents of a stripe.
func MaterializeNodes(c Code, symbols [][]byte) NodeContents {
	p := c.Placement()
	contents := make(NodeContents, c.Nodes())
	for v := range contents {
		contents[v] = make(map[int][]byte)
		for _, s := range p.NodeSymbols[v] {
			contents[v][s] = symbols[s]
		}
	}
	return contents
}

// Erase removes all symbols from the given nodes, simulating node loss.
func (nc NodeContents) Erase(nodes ...int) {
	for _, v := range nodes {
		nc[v] = make(map[int][]byte)
	}
}

// Available folds node contents into a symbol vector: avail[s] is any
// surviving replica of s, or nil if all replicas are gone.
func (nc NodeContents) Available(symbols int) [][]byte {
	avail := make([][]byte, symbols)
	for _, node := range nc {
		for s, b := range node {
			if avail[s] == nil {
				avail[s] = b
			}
		}
	}
	return avail
}

// ExecuteRepair runs a repair plan against node contents, verifying that
// every transfer reads only symbols its source actually holds, and
// installing every recovered symbol replica. It returns an error if the
// plan deadlocks (a transfer's source never obtains a needed symbol) or
// is otherwise invalid. blockSize is the stripe's block size.
func ExecuteRepair(nc NodeContents, plan *RepairPlan, blockSize int) error {
	return ExecuteRepairPooled(nc, plan, blockSize, nil)
}

// ExecuteRepairPooled is ExecuteRepair drawing the plan's intermediate
// transfer payloads AND recovered symbol blocks from pool (which must
// match blockSize) — the allocation-free path for bulk repairs that
// execute one plan per stripe. Transient payloads and scratch symbols
// are recycled before returning; recovered symbols installed into nc
// come from the pool, so the caller must Put each one back once it has
// been persisted (and must not reuse nc afterwards). With a nil pool
// every buffer is freshly allocated and nothing is recycled.
func ExecuteRepairPooled(nc NodeContents, plan *RepairPlan, blockSize int, pool *BlockPool) error {
	payloads := make([][]byte, len(plan.Transfers))
	if pool != nil {
		defer func() {
			for _, p := range payloads {
				pool.Put(p)
			}
		}()
	}
	doneT := make([]bool, len(plan.Transfers))
	doneR := make([]bool, len(plan.Recoveries))
	remaining := len(plan.Transfers) + len(plan.Recoveries)

	for remaining > 0 {
		progress := false
		for i, tr := range plan.Transfers {
			if doneT[i] || !sourceReady(nc, tr) {
				continue
			}
			payloads[i] = evalTermsPooled(nc[tr.From], tr.Terms, blockSize, pool)
			doneT[i] = true
			remaining--
			progress = true
		}
		for i, rec := range plan.Recoveries {
			if doneR[i] || !sourcesDelivered(doneT, rec.Sources) {
				continue
			}
			b, err := combinePooled(payloads, rec.Sources, rec.Coeffs, blockSize, pool)
			if err != nil {
				return fmt.Errorf("recovery of symbol %d at node %d: %w", rec.Symbol, rec.Node, err)
			}
			// Verify payload routing: every source transfer must land at
			// the recovering node.
			for _, si := range rec.Sources {
				if plan.Transfers[si].To != rec.Node {
					return fmt.Errorf("recovery at node %d uses transfer %d destined for node %d",
						rec.Node, si, plan.Transfers[si].To)
				}
			}
			nc[rec.Node][rec.Symbol] = b
			doneR[i] = true
			remaining--
			progress = true
		}
		if !progress {
			return fmt.Errorf("repair plan deadlocked with %d steps remaining", remaining)
		}
	}
	for _, rec := range plan.Recoveries {
		if rec.Scratch {
			if pool != nil {
				pool.Put(nc[rec.Node][rec.Symbol])
			}
			delete(nc[rec.Node], rec.Symbol)
		}
	}
	return nil
}

// Merge appends other's transfers and recoveries to p, re-basing
// other's recovery source indices. The failed-node lists are unioned.
func (p *RepairPlan) Merge(other *RepairPlan) {
	offset := len(p.Transfers)
	p.Transfers = append(p.Transfers, other.Transfers...)
	for _, rec := range other.Recoveries {
		shifted := make([]int, len(rec.Sources))
		for i, s := range rec.Sources {
			shifted[i] = s + offset
		}
		rec.Sources = shifted
		p.Recoveries = append(p.Recoveries, rec)
	}
	have := make(map[int]bool, len(p.Failed))
	for _, f := range p.Failed {
		have[f] = true
	}
	for _, f := range other.Failed {
		if !have[f] {
			p.Failed = append(p.Failed, f)
		}
	}
}

// ExecuteRead runs a read plan against node contents and returns the
// data symbol's bytes.
func ExecuteRead(nc NodeContents, plan *ReadPlan, at int, blockSize int) ([]byte, error) {
	if plan.Local {
		if at == OffCluster {
			return nil, fmt.Errorf("read plan claims locality for an off-cluster reader")
		}
		b, ok := nc[at][plan.Symbol]
		if !ok {
			return nil, fmt.Errorf("read plan claims symbol %d local to node %d, which lacks it", plan.Symbol, at)
		}
		return b, nil
	}
	payloads := make([][]byte, len(plan.Transfers))
	for i, tr := range plan.Transfers {
		if !sourceReady(nc, tr) {
			return nil, fmt.Errorf("transfer %d reads symbols missing at node %d", i, tr.From)
		}
		payloads[i] = evalTerms(nc[tr.From], tr.Terms, blockSize)
	}
	idx := make([]int, len(payloads))
	for i := range idx {
		idx[i] = i
	}
	return combine(payloads, idx, plan.Coeffs, blockSize)
}

func sourceReady(nc NodeContents, tr Transfer) bool {
	src := nc[tr.From]
	for _, term := range tr.Terms {
		if _, ok := src[term.Symbol]; !ok {
			return false
		}
	}
	return true
}

func sourcesDelivered(doneT []bool, sources []int) bool {
	for _, s := range sources {
		if !doneT[s] {
			return false
		}
	}
	return true
}

func evalTerms(node map[int][]byte, terms []Term, blockSize int) []byte {
	return evalTermsPooled(node, terms, blockSize, nil)
}

func evalTermsPooled(node map[int][]byte, terms []Term, blockSize int, pool *BlockPool) []byte {
	var out []byte
	if pool != nil {
		out = pool.GetZero()
	} else {
		out = make([]byte, blockSize)
	}
	for _, term := range terms {
		gf256.MulAddSlice(term.Coeff, node[term.Symbol], out)
	}
	return out
}

func combine(payloads [][]byte, sources []int, coeffs []byte, blockSize int) ([]byte, error) {
	return combinePooled(payloads, sources, coeffs, blockSize, nil)
}

func combinePooled(payloads [][]byte, sources []int, coeffs []byte, blockSize int, pool *BlockPool) ([]byte, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("empty source list")
	}
	if coeffs != nil && len(coeffs) != len(sources) {
		return nil, fmt.Errorf("coeffs length %d != sources length %d", len(coeffs), len(sources))
	}
	var out []byte
	if pool != nil {
		out = pool.GetZero()
	} else {
		out = make([]byte, blockSize)
	}
	for i, si := range sources {
		c := byte(1)
		if coeffs != nil {
			c = coeffs[i]
		}
		gf256.MulAddSlice(c, payloads[si], out)
	}
	return out, nil
}
