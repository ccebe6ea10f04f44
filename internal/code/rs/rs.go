// Package rs implements systematic (n, k) Reed-Solomon codes over
// GF(2^8), the storage-efficient erasure codes the paper's introduction
// discusses as Facebook's HDFS-RAID choice for cold data (Borthakur et
// al., Sathiamoorthy et al.).
//
// RS codes store a single copy of each of n symbols on n distinct
// nodes (no inherent replication), tolerate any n-k erasures, and — the
// property the paper's codes are designed to avoid — pay k whole-block
// transfers to repair any single lost block and offer no data locality
// benefits for MapReduce. They are included as the cold-data baseline:
// registered instances are Facebook's (14,10) and classic (9,6).
package rs

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gf256"
)

// Code is a systematic (n, k) Reed-Solomon code.
type Code struct {
	n, k      int
	enc       *gf256.Matrix    // n x k systematic encoding matrix
	parity    *core.EncodePlan // compiled parity rows k..n-1 of enc
	placement core.Placement

	// inverses caches the inverted k x k decode submatrix per
	// survivor-row pattern, shared by Decode, PlanRepair and PlanRead:
	// a fixed failure pattern inverts once, not once per stripe.
	inverses core.MatrixCache
}

var _ core.Code = (*Code)(nil)

// New returns the systematic (n, k) RS code. It panics if the
// parameters are out of the GF(2^8) range or k >= n.
func New(n, k int) *Code {
	if k < 1 || n <= k || n > 255 {
		panic(fmt.Sprintf("rs: invalid parameters (%d, %d)", n, k))
	}
	v := gf256.Vandermonde(n, k)
	topRows := make([]int, k)
	for i := range topRows {
		topRows[i] = i
	}
	topInv, err := v.SubMatrix(topRows).Invert()
	if err != nil {
		panic("rs: Vandermonde top square not invertible")
	}
	enc := v.Mul(topInv)
	symbolNodes := make([][]int, n)
	for s := range symbolNodes {
		symbolNodes[s] = []int{s}
	}
	parityRows := make([]int, 0, n-k)
	for r := k; r < n; r++ {
		parityRows = append(parityRows, r)
	}
	return &Code{
		n: n, k: k, enc: enc,
		parity:    core.CompileEncode(enc.SubMatrix(parityRows)),
		placement: core.PlacementFromSymbolNodes(symbolNodes, n),
	}
}

func init() {
	core.Register("rs-14-10", func() core.Code { return New(14, 10) })
	core.Register("rs-9-6", func() core.Code { return New(9, 6) })
}

// Name returns "(n,k) RS".
func (c *Code) Name() string { return fmt.Sprintf("(%d,%d) RS", c.n, c.k) }

// DataSymbols returns k.
func (c *Code) DataSymbols() int { return c.k }

// Symbols returns n.
func (c *Code) Symbols() int { return c.n }

// Nodes returns n: one single-copy symbol per node.
func (c *Code) Nodes() int { return c.n }

// Placement stores symbol s on node s, single copy.
func (c *Code) Placement() core.Placement { return c.placement }

// FaultTolerance returns n-k.
func (c *Code) FaultTolerance() int { return c.n - c.k }

// Encode produces the n coded symbols (systematic: the first k are the
// data).
func (c *Code) Encode(data [][]byte) ([][]byte, error) { return core.Encode(c, data) }

// EncodeInto writes the n-k parity symbols into out[k:] through the
// compiled encode plan, aliasing the data blocks into out[:k].
func (c *Code) EncodeInto(data, out [][]byte) error {
	copy(out, data)
	c.parity.Apply(data, out[c.k:])
	return nil
}

// Decode reconstructs the data from any k surviving symbols.
func (c *Code) Decode(avail [][]byte) ([][]byte, error) {
	if len(avail) != c.n {
		return nil, fmt.Errorf("rs: want %d symbols, got %d", c.n, len(avail))
	}
	var rows []int
	var bufs [][]byte
	for s, b := range avail {
		if b != nil {
			rows = append(rows, s)
			bufs = append(bufs, b)
			if len(rows) == c.k {
				break
			}
		}
	}
	if len(rows) < c.k {
		return nil, &core.ErasureError{
			Code: c.Name(), Missing: missingOf(avail),
			Reason: fmt.Sprintf("only %d of %d symbols survive", len(rows), c.k),
		}
	}
	// Fast path: all data symbols present.
	systematic := true
	for i, r := range rows {
		if r != i {
			systematic = false
			break
		}
	}
	if systematic {
		return append([][]byte(nil), avail[:c.k]...), nil
	}
	inv, err := c.invertRows(rows)
	if err != nil {
		return nil, err
	}
	return inv.MulVec(bufs), nil
}

// invertRows returns the inverse of the k x k submatrix of the encoding
// matrix formed by the given survivor rows, cached per row sequence
// (the inverse is row-order-sensitive, so the key must be too).
func (c *Code) invertRows(rows []int) (*gf256.Matrix, error) {
	return c.inverses.Get(core.SequenceKey(rows), func() (*gf256.Matrix, error) {
		inv, err := c.enc.SubMatrix(rows).Invert()
		if err != nil {
			return nil, fmt.Errorf("rs: decode matrix singular: %w", err)
		}
		return inv, nil
	})
}

func missingOf(avail [][]byte) []int {
	var m []int
	for s, b := range avail {
		if b == nil {
			m = append(m, s)
		}
	}
	return m
}

// decodeCoeffs returns, for a target symbol, coefficients over the
// given surviving symbol set such that target = sum coeff_i * rows_i.
// The underlying inversion is shared with Decode through the per-
// pattern cache.
func (c *Code) decodeCoeffs(target int, rows []int) ([]byte, error) {
	inv, err := c.invertRows(rows)
	if err != nil {
		return nil, fmt.Errorf("rs: helper matrix singular")
	}
	// target row of enc times inv gives the combination of the
	// surviving symbols.
	coeffs := make([]byte, len(rows))
	for i := range rows {
		var v byte
		for j := 0; j < c.k; j++ {
			v ^= gf256.Mul(c.enc.At(target, j), inv.At(j, i))
		}
		coeffs[i] = v
	}
	return coeffs, nil
}

// PlanRepair rebuilds each failed node's symbol from k surviving
// symbols — the k-block repair bill that motivates regenerating codes.
func (c *Code) PlanRepair(failed []int) (*core.RepairPlan, error) {
	down := make(map[int]bool, len(failed))
	for _, f := range failed {
		if f < 0 || f >= c.n {
			return nil, fmt.Errorf("rs: invalid node %d", f)
		}
		if down[f] {
			return nil, fmt.Errorf("rs: duplicate failed node %d", f)
		}
		down[f] = true
	}
	if len(failed) > c.n-c.k {
		return nil, &core.ErasureError{Code: c.Name(), Missing: failed, Reason: "beyond fault tolerance"}
	}
	var survivors []int
	for s := 0; s < c.n && len(survivors) < c.k; s++ {
		if !down[s] {
			survivors = append(survivors, s)
		}
	}
	plan := &core.RepairPlan{Failed: append([]int(nil), failed...)}
	for _, f := range failed {
		coeffs, err := c.decodeCoeffs(f, survivors)
		if err != nil {
			return nil, err
		}
		var sources []int
		var rc []byte
		for i, s := range survivors {
			if coeffs[i] == 0 {
				continue
			}
			sources = append(sources, len(plan.Transfers))
			rc = append(rc, 1)
			plan.Transfers = append(plan.Transfers, core.Transfer{
				From: s, To: f,
				Terms: []core.Term{{Symbol: s, Coeff: coeffs[i]}},
			})
		}
		plan.Recoveries = append(plan.Recoveries, core.Recovery{
			Node: f, Symbol: f, Sources: sources, Coeffs: rc,
		})
	}
	return plan, nil
}

// PlanRead delivers data symbol s: locally or by one copy when its
// node is up, otherwise by a k-transfer decode — RS has no cheaper
// degraded read.
func (c *Code) PlanRead(symbol int, down []int, at int) (*core.ReadPlan, error) {
	if symbol < 0 || symbol >= c.k {
		return nil, fmt.Errorf("rs: invalid data symbol %d", symbol)
	}
	isDown := make(map[int]bool, len(down))
	for _, d := range down {
		if d < 0 || d >= c.n {
			return nil, fmt.Errorf("rs: invalid down node %d", d)
		}
		isDown[d] = true
	}
	if !isDown[symbol] {
		if at == symbol {
			return &core.ReadPlan{Symbol: symbol, Local: true}, nil
		}
		return &core.ReadPlan{
			Symbol: symbol,
			Transfers: []core.Transfer{
				{From: symbol, To: at, Terms: []core.Term{{Symbol: symbol, Coeff: 1}}},
			},
		}, nil
	}
	var survivors []int
	for s := 0; s < c.n && len(survivors) < c.k; s++ {
		if !isDown[s] {
			survivors = append(survivors, s)
		}
	}
	if len(survivors) < c.k {
		return nil, &core.ErasureError{Code: c.Name(), Missing: down, Reason: "fewer than k symbols up"}
	}
	coeffs, err := c.decodeCoeffs(symbol, survivors)
	if err != nil {
		return nil, err
	}
	plan := &core.ReadPlan{Symbol: symbol}
	for i, s := range survivors {
		if coeffs[i] == 0 {
			continue
		}
		plan.Transfers = append(plan.Transfers, core.Transfer{
			From: s, To: at, Terms: []core.Term{{Symbol: s, Coeff: coeffs[i]}},
		})
		plan.Coeffs = append(plan.Coeffs, 1)
	}
	return plan, nil
}
