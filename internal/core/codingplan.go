package core

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/gf256"
)

// Compiled coding plans.
//
// The matrix codes used to pay two per-stripe costs that have nothing
// to do with moving bytes: re-reading coefficients through Matrix.At in
// the inner encode loop, and re-inverting the decode matrix for an
// erasure pattern every stripe even though the pattern is fixed for the
// duration of a failure. This file compiles both away:
//
//   - EncodePlan pre-resolves every non-zero coefficient of an encoding
//     matrix to its split nibble tables (see gf256.Tables) at
//     construction, so encoding a stripe is a flat walk over (table,
//     column) pairs feeding the slice kernels;
//   - MatrixCache memoizes per-erasure-pattern matrices (decode
//     inversions, repair coefficient solves) keyed by the pattern, so
//     degraded reads, repairs and transcodes invert once per pattern
//     instead of once per stripe.

// encTerm is one compiled coefficient: multiply column Col by the
// coefficient resolved into the lo/hi nibble tables.
type encTerm struct {
	col    int
	coeff  byte
	lo, hi *[16]byte
}

// EncodePlan is a compiled matrix-vector product over block buffers:
// row i of the output is sum_j m[i][j]*in[j], with zero coefficients
// skipped at compile time.
type EncodePlan struct {
	cols int
	rows [][]encTerm
}

// CompileEncode compiles a matrix into an encode plan. Rows that are
// entirely zero produce zeroed output blocks.
func CompileEncode(m *gf256.Matrix) *EncodePlan {
	p := &EncodePlan{cols: m.Cols, rows: make([][]encTerm, m.Rows)}
	for i := 0; i < m.Rows; i++ {
		terms := make([]encTerm, 0, m.Cols)
		for j := 0; j < m.Cols; j++ {
			c := m.At(i, j)
			if c == 0 {
				continue
			}
			lo, hi := gf256.Tables(c)
			terms = append(terms, encTerm{col: j, coeff: c, lo: lo, hi: hi})
		}
		p.rows[i] = terms
	}
	return p
}

// Rows returns the number of output blocks the plan produces.
func (p *EncodePlan) Rows() int { return len(p.rows) }

// Apply computes every output row into out, overwriting it completely
// (out buffers need not be zeroed and must not alias the inputs).
func (p *EncodePlan) Apply(in, out [][]byte) {
	if len(in) != p.cols {
		panic(fmt.Sprintf("core: encode plan needs %d inputs, got %d", p.cols, len(in)))
	}
	if len(out) != len(p.rows) {
		panic(fmt.Sprintf("core: encode plan produces %d outputs, got %d buffers", len(p.rows), len(out)))
	}
	for i, terms := range p.rows {
		dst := out[i]
		if len(terms) == 0 {
			clear(dst)
			continue
		}
		first := terms[0]
		if first.coeff == 1 {
			copy(dst, in[first.col])
		} else {
			gf256.MulSliceTab(first.lo, first.hi, in[first.col], dst)
		}
		for _, t := range terms[1:] {
			if t.coeff == 1 {
				gf256.XorSlice(in[t.col], dst)
			} else {
				gf256.MulAddSliceTab(t.lo, t.hi, in[t.col], dst)
			}
		}
	}
}

// SequenceKey renders an index sequence into a cache key verbatim:
// order- and multiplicity-preserving, dash-joined. Use it when the
// cached artifact depends on the exact sequence (e.g. a SubMatrix
// inverse, whose row order matters).
func SequenceKey(idx []int) string {
	var b []byte
	for i, v := range idx {
		if i > 0 {
			b = append(b, '-')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

// MatrixCache memoizes erasure-pattern-dependent matrices. The zero
// value is ready to use; it is safe for concurrent Get calls, as
// happens when parallel degraded reads hit different stripes of one
// failure pattern.
type MatrixCache struct {
	mu sync.RWMutex
	m  map[string]*gf256.Matrix
}

// Get returns the matrix cached under key, building it with build on
// the first request. Concurrent first requests may each run build; one
// result wins and is returned to everyone thereafter. Build errors are
// not cached.
func (c *MatrixCache) Get(key string, build func() (*gf256.Matrix, error)) (*gf256.Matrix, error) {
	c.mu.RLock()
	m, ok := c.m[key]
	c.mu.RUnlock()
	if ok {
		return m, nil
	}
	built, err := build()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]*gf256.Matrix)
	}
	if won, ok := c.m[key]; ok {
		return won, nil
	}
	c.m[key] = built
	return built, nil
}

// Len returns the number of cached entries, for tests and stats.
func (c *MatrixCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
