package gf256

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestMulKnownValues(t *testing.T) {
	// Hand-checked products under polynomial 0x11D.
	cases := []struct{ a, b, want byte }{
		{0, 0, 0},
		{0, 7, 0},
		{1, 1, 1},
		{1, 0xFF, 0xFF},
		{2, 2, 4},
		{2, 0x80, 0x1D},    // overflow wraps through the polynomial
		{0x80, 0x80, 0x13}, // 2^7 * 2^7 = 2^14 = 0x13 under 0x11D
	}
	for _, c := range cases {
		if got := Mul(c.a, c.b); got != c.want {
			t.Errorf("Mul(%#x, %#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

// mulSlow is bitwise carry-less multiplication with reduction, used as an
// independent oracle for the table-driven Mul.
func mulSlow(a, b byte) byte {
	var prod int
	ai, bi := int(a), int(b)
	for bi > 0 {
		if bi&1 != 0 {
			prod ^= ai
		}
		ai <<= 1
		if ai&0x100 != 0 {
			ai ^= Poly
		}
		bi >>= 1
	}
	return byte(prod)
}

func TestMulMatchesBitwiseOracle(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := Mul(byte(a), byte(b)), mulSlow(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%#x, %#x) = %#x, want %#x", a, b, got, want)
			}
		}
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulAssociative(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributive(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(a, b^c) == Mul(a, b)^Mul(a, c) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if Mul(byte(a), inv) != 1 {
			t.Fatalf("Inv(%#x) = %#x but product != 1", a, inv)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestExpLogRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if Exp(int(logTable[a])) != byte(a) {
			t.Fatalf("Exp(log %#x) != %#x", a, a)
		}
	}
}

func TestExpNegative(t *testing.T) {
	if Exp(-1) != Inv(2) {
		t.Fatalf("Exp(-1) = %#x, want Inv(2) = %#x", Exp(-1), Inv(2))
	}
	if Exp(255) != 1 {
		t.Fatalf("Exp(255) = %#x, want 1", Exp(255))
	}
}

func TestPow(t *testing.T) {
	if Pow(0, 0) != 1 {
		t.Errorf("Pow(0,0) = %d, want 1", Pow(0, 0))
	}
	if Pow(0, 5) != 0 {
		t.Errorf("Pow(0,5) = %d, want 0", Pow(0, 5))
	}
	f := func(a byte) bool {
		return Pow(a, 3) == Mul(a, Mul(a, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeneratorHasFullOrder(t *testing.T) {
	// 2 must generate the full multiplicative group: 2^i distinct for
	// i in [0,255).
	seen := make(map[byte]bool)
	for i := 0; i < 255; i++ {
		v := Exp(i)
		if seen[v] {
			t.Fatalf("Exp(%d) = %#x repeats; 2 is not primitive", i, v)
		}
		seen[v] = true
	}
}

func TestMulSlice(t *testing.T) {
	src := []byte{0, 1, 2, 0x80, 0xFF}
	dst := make([]byte, len(src))
	MulSlice(3, src, dst)
	for i := range src {
		if dst[i] != Mul(3, src[i]) {
			t.Fatalf("MulSlice mismatch at %d", i)
		}
	}
	MulSlice(0, src, dst)
	for i := range dst {
		if dst[i] != 0 {
			t.Fatal("MulSlice by 0 did not zero dst")
		}
	}
	MulSlice(1, src, dst)
	if !bytes.Equal(src, dst) {
		t.Fatal("MulSlice by 1 is not a copy")
	}
}

func TestMulAddSlice(t *testing.T) {
	src := []byte{1, 2, 3, 4}
	dst := []byte{5, 6, 7, 8}
	want := make([]byte, 4)
	for i := range want {
		want[i] = dst[i] ^ Mul(9, src[i])
	}
	MulAddSlice(9, src, dst)
	if !bytes.Equal(dst, want) {
		t.Fatalf("MulAddSlice = %v, want %v", dst, want)
	}
	// c = 0 must be a no-op.
	before := append([]byte(nil), dst...)
	MulAddSlice(0, src, dst)
	if !bytes.Equal(dst, before) {
		t.Fatal("MulAddSlice by 0 modified dst")
	}
}

func TestMulSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MulSlice(2, make([]byte, 3), make([]byte, 4))
}
