package gf256

import (
	"errors"
	"fmt"
)

// Matrix is a dense matrix over GF(2^8), stored row-major.
type Matrix struct {
	Rows, Cols int
	Data       []byte // len == Rows*Cols
}

// NewMatrix allocates a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("gf256: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]byte, rows*cols)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Vandermonde returns the rows x cols Vandermonde matrix whose entry
// (i, j) is (2^i)^j. Any square submatrix built from distinct rows is
// invertible, which is the property Reed-Solomon style codes rely on.
func Vandermonde(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, Pow(Exp(i), j))
		}
	}
	return m
}

// At returns the entry at row i, column j.
func (m *Matrix) At(i, j int) byte { return m.Data[i*m.Cols+j] }

// Set assigns the entry at row i, column j.
func (m *Matrix) Set(i, j int, v byte) { m.Data[i*m.Cols+j] = v }

// Row returns the i-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []byte { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Mul returns the matrix product m * other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("gf256: matrix product shape mismatch %dx%d * %dx%d",
			m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := NewMatrix(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		orow := out.Row(i)
		for k := 0; k < m.Cols; k++ {
			c := m.At(i, k)
			if c != 0 {
				MulAddSlice(c, other.Row(k), orow)
			}
		}
	}
	return out
}

// MulVec applies the matrix to a set of symbol buffers: out[i] is the
// GF(2^8)-linear combination sum_j m[i][j]*in[j], computed bytewise over
// buffers of equal length. It is the block-encoding kernel.
func (m *Matrix) MulVec(in [][]byte) [][]byte {
	if len(in) != m.Cols {
		panic(fmt.Sprintf("gf256: MulVec needs %d inputs, got %d", m.Cols, len(in)))
	}
	size := len(in[0])
	out := make([][]byte, m.Rows)
	for i := range out {
		out[i] = make([]byte, size)
	}
	m.MulVecInto(in, out)
	return out
}

// MulVecInto is MulVec into caller-provided buffers: out[i] receives
// sum_j m[i][j]*in[j]. out must hold m.Rows buffers of the input block
// size; they are fully overwritten (no pre-zeroing needed) and must not
// alias the inputs. It is the zero-allocation encoding kernel behind
// pooled stripe pipelines.
func (m *Matrix) MulVecInto(in, out [][]byte) {
	if len(in) != m.Cols {
		panic(fmt.Sprintf("gf256: MulVecInto needs %d inputs, got %d", m.Cols, len(in)))
	}
	if len(out) != m.Rows {
		panic(fmt.Sprintf("gf256: MulVecInto needs %d outputs, got %d", m.Rows, len(out)))
	}
	for i := range out {
		started := false
		for j := 0; j < m.Cols; j++ {
			c := m.At(i, j)
			if c == 0 {
				continue
			}
			if !started {
				MulSlice(c, in[j], out[i])
				started = true
			} else {
				MulAddSlice(c, in[j], out[i])
			}
		}
		if !started {
			for k := range out[i] {
				out[i][k] = 0
			}
		}
	}
}

// ErrSingular is returned by Invert when the matrix has no inverse.
var ErrSingular = errors.New("gf256: singular matrix")

// Invert returns the inverse of a square matrix via Gauss-Jordan
// elimination, or ErrSingular if the matrix is not invertible.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.Rows != m.Cols {
		panic("gf256: Invert on non-square matrix")
	}
	n := m.Rows
	work := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Find a pivot row.
		pivot := -1
		for r := col; r < n; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(work, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Scale the pivot row so the pivot entry is 1.
		if p := work.At(col, col); p != 1 {
			ip := Inv(p)
			scaleRow(work, col, ip)
			scaleRow(inv, col, ip)
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			c := work.At(r, col)
			if c == 0 {
				continue
			}
			MulAddSlice(c, work.Row(col), work.Row(r))
			MulAddSlice(c, inv.Row(col), inv.Row(r))
		}
	}
	return inv, nil
}

// SubMatrix returns the matrix formed by the given row indices (in order).
func (m *Matrix) SubMatrix(rows []int) *Matrix {
	out := NewMatrix(len(rows), m.Cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

func swapRows(m *Matrix, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

func scaleRow(m *Matrix, r int, c byte) {
	row := m.Row(r)
	MulSlice(c, row, row)
}
