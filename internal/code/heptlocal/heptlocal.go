// Package heptlocal implements the paper's heptagon-local code, an
// instance of the locally regenerating codes of Kamath et al.
//
// 40 data blocks are split into two groups of 20, each encoded by a
// heptagon (K7 repair-by-transfer) local code on 7 nodes, and two
// RAID-6-style global parity blocks over all 40 data blocks are stored
// on a 15th node:
//
//	symbols  0..19  data of heptagon A        (double replicated)
//	symbols 20..39  data of heptagon B        (double replicated)
//	symbol  40      local XOR parity of A     (double replicated)
//	symbol  41      local XOR parity of B     (double replicated)
//	symbol  42      global parity Q0 = sum alpha^i  d_i   (single copy)
//	symbol  43      global parity Q1 = sum alpha^2i d_i   (single copy)
//
// 86 physical blocks on 15 nodes, storage overhead 86/40 = 2.15x, and
// tolerance to ANY 3 node erasures. One or two failures inside a
// heptagon are repaired locally (exactly like the heptagon code); three
// failures in one heptagon engage the second heptagon and the global
// parities, with partial parities keeping the transfer count down.
package heptlocal

import (
	"fmt"

	"repro/internal/code/polygon"
	"repro/internal/core"
	"repro/internal/gf256"
)

const (
	dataPerGroup = 20
	// K is the number of data blocks per stripe.
	K = 2 * dataPerGroup
	// S is the number of distinct symbols per stripe.
	S = K + 4
	// N is the number of nodes per stripe.
	N = 15

	localParityA = 40
	localParityB = 41
	globalQ0     = 42
	globalQ1     = 43
	globalNode   = 14
)

// Code is the heptagon-local code.
type Code struct {
	hept      *polygon.Code // the K7 structure shared by both groups
	placement core.Placement
	parity    *gf256.Matrix    // 4 x S parity-check matrix
	enc       *core.EncodePlan // its rows over the 40 data columns, compiled

	// solves caches, per missing-symbol pattern, the u x 4 matrix
	// mapping syndromes to the missing symbols, so degraded stripes of
	// one failure pattern eliminate once instead of once per stripe.
	solves core.MatrixCache
}

var _ core.Code = (*Code)(nil)

// New returns the heptagon-local code.
func New() *Code {
	c := &Code{hept: polygon.New(7)}

	symbolNodes := make([][]int, S)
	for h := 0; h < 2; h++ {
		for t := 0; t < c.hept.Symbols(); t++ {
			i, j := c.hept.Edge(t)
			symbolNodes[c.globalSymbol(h, t)] = []int{7*h + i, 7*h + j}
		}
	}
	symbolNodes[globalQ0] = []int{globalNode}
	symbolNodes[globalQ1] = []int{globalNode}
	c.placement = core.PlacementFromSymbolNodes(symbolNodes, N)

	// Parity-check rows: local A, local B, Q0, Q1.
	c.parity = gf256.NewMatrix(4, S)
	for i := 0; i < dataPerGroup; i++ {
		c.parity.Set(0, i, 1)
		c.parity.Set(1, dataPerGroup+i, 1)
	}
	c.parity.Set(0, localParityA, 1)
	c.parity.Set(1, localParityB, 1)
	for i := 0; i < K; i++ {
		c.parity.Set(2, i, gf256.Exp(i))
		c.parity.Set(3, i, gf256.Exp(2*i))
	}
	c.parity.Set(2, globalQ0, 1)
	c.parity.Set(3, globalQ1, 1)

	// Row r of the parity checks over the data columns yields parity
	// symbol K+r.
	enc := gf256.NewMatrix(S-K, K)
	for r := 0; r < S-K; r++ {
		for i := 0; i < K; i++ {
			enc.Set(r, i, c.parity.At(r, i))
		}
	}
	c.enc = core.CompileEncode(enc)
	return c
}

func init() {
	core.Register("heptagon-local", func() core.Code { return New() })
}

// globalSymbol maps heptagon h's polygon-local symbol t to the stripe
// symbol index.
func (c *Code) globalSymbol(h, t int) int {
	if t == c.hept.ParitySymbol() {
		return localParityA + h
	}
	return dataPerGroup*h + t
}

// localSymbol inverts globalSymbol for symbols belonging to heptagon h.
func (c *Code) localSymbol(h, g int) int {
	if g == localParityA+h {
		return c.hept.ParitySymbol()
	}
	return g - dataPerGroup*h
}

// groupOf returns which heptagon (0 or 1) a double-replicated symbol
// belongs to; global parities return 2.
func groupOf(g int) int {
	switch {
	case g < dataPerGroup || g == localParityA:
		return 0
	case g < K || g == localParityB:
		return 1
	default:
		return 2
	}
}

// Name returns "heptagon-local".
func (c *Code) Name() string { return "heptagon-local" }

// RackGroups prescribes the paper's rack-aware layout: heptagon A,
// heptagon B and the global-parity node each in their own rack, so
// common repairs never leave a rack and a full rack loss is a
// tolerated erasure pattern.
func (c *Code) RackGroups() [][]int {
	return [][]int{
		{0, 1, 2, 3, 4, 5, 6},
		{7, 8, 9, 10, 11, 12, 13},
		{globalNode},
	}
}

// DataSymbols returns 40.
func (c *Code) DataSymbols() int { return K }

// Symbols returns 44.
func (c *Code) Symbols() int { return S }

// Nodes returns 15: two disjoint heptagons plus the global-parity node.
func (c *Code) Nodes() int { return N }

// Placement returns the two-heptagons-plus-global-node layout (86
// physical blocks).
func (c *Code) Placement() core.Placement { return c.placement }

// FaultTolerance returns 3.
func (c *Code) FaultTolerance() int { return 3 }

// Encode computes the two local XOR parities and the two GF(2^8) global
// parities.
func (c *Code) Encode(data [][]byte) ([][]byte, error) { return core.Encode(c, data) }

// EncodeInto writes the two local XOR parities and the two GF(2^8)
// global parities into out[40:] through the compiled parity plan,
// aliasing the data blocks into out[:40].
func (c *Code) EncodeInto(data, out [][]byte) error {
	copy(out, data)
	c.enc.Apply(data, out[K:])
	return nil
}

// Decode reconstructs the 40 data blocks from any decodable erasure
// pattern by solving the four parity-check equations for the missing
// symbols. Any pattern left by up to 3 node erasures is decodable; some
// 4-symbol patterns also succeed when the corresponding parity-check
// columns are independent.
func (c *Code) Decode(avail [][]byte) ([][]byte, error) {
	if len(avail) != S {
		return nil, fmt.Errorf("heptagon-local: want %d symbols, got %d", S, len(avail))
	}
	var missing []int
	size := 0
	for g, b := range avail {
		if b == nil {
			missing = append(missing, g)
		} else if size == 0 {
			size = len(b)
		}
	}
	if len(missing) == 0 {
		return append([][]byte(nil), avail[:K]...), nil
	}
	if size == 0 {
		return nil, &core.ErasureError{Code: c.Name(), Missing: missing, Reason: "no symbols available"}
	}
	if len(missing) > 4 {
		return nil, &core.ErasureError{Code: c.Name(), Missing: missing, Reason: "more than four symbols lost"}
	}

	// Syndromes: rhs[j] = sum over available symbols of H[j][g]*avail[g];
	// for a valid codeword this equals the missing symbols' contribution.
	rhs := make([][]byte, 4)
	for j := range rhs {
		rhs[j] = make([]byte, size)
		for g, b := range avail {
			if b != nil {
				gf256.MulAddSlice(c.parity.At(j, g), b, rhs[j])
			}
		}
	}
	w, err := c.solvePlan(missing)
	if err != nil {
		return nil, &core.ErasureError{Code: c.Name(), Missing: missing, Reason: err.Error()}
	}
	solved := w.MulVec(rhs)
	full := append([][]byte(nil), avail...)
	for mi, g := range missing {
		full[g] = solved[mi]
	}
	return full[:K], nil
}

// solvePlan returns the cached u x 4 solve matrix W for a missing
// sequence: missing[i] = sum_j W[i][j] * syndrome_j. Compiling W runs
// the Gaussian elimination once on bytes; applying it per stripe is a
// flat matrix-vector product over the block buffers. W's rows follow
// the order of missing, so the cache key preserves the sequence.
func (c *Code) solvePlan(missing []int) (*gf256.Matrix, error) {
	return c.solves.Get(core.SequenceKey(missing), func() (*gf256.Matrix, error) {
		return c.compileSolve(missing)
	})
}

// compileSolve eliminates [cols | I4] where cols is the 4 x u
// parity-check submatrix of the missing symbols. The accumulated row
// operations T satisfy (T*cols) reduced; the missing symbol for column
// col is row pivotRow[col] of T applied to the syndromes.
func (c *Code) compileSolve(missing []int) (*gf256.Matrix, error) {
	u := len(missing)
	cols := gf256.NewMatrix(4, u)
	for j := 0; j < 4; j++ {
		for mi, g := range missing {
			cols.Set(j, mi, c.parity.At(j, g))
		}
	}
	t := gf256.Identity(4)
	pivotRow := make([]int, u)
	for i := range pivotRow {
		pivotRow[i] = -1
	}
	r := 0
	for col := 0; col < u && r < 4; col++ {
		pivot := -1
		for rr := r; rr < 4; rr++ {
			if cols.At(rr, col) != 0 {
				pivot = rr
				break
			}
		}
		if pivot < 0 {
			continue
		}
		if pivot != r {
			swapMatrixRows(cols, pivot, r)
			swapMatrixRows(t, pivot, r)
		}
		if p := cols.At(r, col); p != 1 {
			inv := gf256.Inv(p)
			gf256.MulSlice(inv, cols.Row(r), cols.Row(r))
			gf256.MulSlice(inv, t.Row(r), t.Row(r))
		}
		for rr := 0; rr < 4; rr++ {
			if rr == r {
				continue
			}
			f := cols.At(rr, col)
			if f == 0 {
				continue
			}
			gf256.MulAddSlice(f, cols.Row(r), cols.Row(rr))
			gf256.MulAddSlice(f, t.Row(r), t.Row(rr))
		}
		pivotRow[col] = r
		r++
	}
	w := gf256.NewMatrix(u, 4)
	for col := 0; col < u; col++ {
		if pivotRow[col] < 0 {
			return nil, fmt.Errorf("erasure pattern not solvable: symbol column %d has no pivot", col)
		}
		copy(w.Row(col), t.Row(pivotRow[col]))
	}
	return w, nil
}

func swapMatrixRows(m *gf256.Matrix, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}
