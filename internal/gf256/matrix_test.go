package gf256

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := byte(0)
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(4)[%d][%d] = %d", i, j, id.At(i, j))
			}
		}
	}
}

func TestMatrixMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(5, 5)
	for i := range m.Data {
		m.Data[i] = byte(rng.Intn(256))
	}
	got := m.Mul(Identity(5))
	if !bytes.Equal(got.Data, m.Data) {
		t.Fatal("M * I != M")
	}
	got = Identity(5).Mul(m)
	if !bytes.Equal(got.Data, m.Data) {
		t.Fatal("I * M != M")
	}
}

func TestMatrixMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 3))
}

func TestInvertIdentity(t *testing.T) {
	inv, err := Identity(6).Invert()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inv.Data, Identity(6).Data) {
		t.Fatal("inverse of identity is not identity")
	}
}

func TestInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = byte(rng.Intn(256))
		}
		inv, err := m.Invert()
		if err != nil {
			continue // singular random matrix; skip
		}
		prod := m.Mul(inv)
		if !bytes.Equal(prod.Data, Identity(n).Data) {
			t.Fatalf("trial %d: M * M^-1 != I\nM=\n%v", trial, m)
		}
	}
}

func TestInvertSingular(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 3)
	m.Set(0, 1, 5)
	m.Set(1, 0, 3)
	m.Set(1, 1, 5) // duplicate row
	if _, err := m.Invert(); err != ErrSingular {
		t.Fatalf("Invert of singular matrix: err = %v, want ErrSingular", err)
	}
}

func TestVandermondeSquareSubmatricesInvertible(t *testing.T) {
	// Every square submatrix of distinct rows of a Vandermonde matrix
	// with distinct evaluation points must be invertible. Exhaustive
	// over all 3-row choices from a 6x3 Vandermonde.
	v := Vandermonde(6, 3)
	for a := 0; a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			for c := b + 1; c < 6; c++ {
				sub := v.SubMatrix([]int{a, b, c})
				if _, err := sub.Invert(); err != nil {
					t.Fatalf("rows {%d,%d,%d} singular", a, b, c)
				}
			}
		}
	}
}

func TestMulVecMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := Vandermonde(4, 3)
	in := make([][]byte, 3)
	for i := range in {
		in[i] = make([]byte, 16)
		rng.Read(in[i])
	}
	out := m.MulVec(in)
	for i := 0; i < m.Rows; i++ {
		for p := 0; p < 16; p++ {
			var want byte
			for j := 0; j < m.Cols; j++ {
				want ^= Mul(m.At(i, j), in[j][p])
			}
			if out[i][p] != want {
				t.Fatalf("MulVec[%d][%d] = %#x, want %#x", i, p, out[i][p], want)
			}
		}
	}
}

// TestEncodeDecodeProperty is the end-to-end Reed-Solomon property: encode
// k data buffers with an (n, k) Vandermonde-derived systematic matrix and
// decode from any k of the n outputs.
func TestEncodeDecodeProperty(t *testing.T) {
	const k, n = 4, 7
	enc := systematicVandermonde(n, k, t)

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([][]byte, k)
		for i := range data {
			data[i] = make([]byte, 32)
			rng.Read(data[i])
		}
		coded := enc.MulVec(data)
		// Pick k random distinct coded rows.
		perm := rng.Perm(n)[:k]
		sub := enc.SubMatrix(perm)
		inv, err := sub.Invert()
		if err != nil {
			t.Fatalf("systematic Vandermonde submatrix singular for rows %v", perm)
		}
		avail := make([][]byte, k)
		for i, r := range perm {
			avail[i] = coded[r]
		}
		decoded := inv.MulVec(avail)
		for i := range data {
			if !bytes.Equal(decoded[i], data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// systematicVandermonde builds an n x k encoding matrix whose first k rows
// are the identity, by multiplying a Vandermonde matrix by the inverse of
// its top square.
func systematicVandermonde(n, k int, t *testing.T) *Matrix {
	t.Helper()
	v := Vandermonde(n, k)
	topInv, err := v.SubMatrix([]int{0, 1, 2, 3}[:k]).Invert()
	if err != nil {
		t.Fatal(err)
	}
	return v.Mul(topInv)
}

func TestSubMatrix(t *testing.T) {
	m := &Matrix{Rows: 3, Cols: 2, Data: []byte{1, 2, 3, 4, 5, 6}}
	s := m.SubMatrix([]int{2, 0})
	if s.At(0, 0) != 5 || s.At(1, 1) != 2 {
		t.Fatalf("SubMatrix wrong: %v", s)
	}
}
