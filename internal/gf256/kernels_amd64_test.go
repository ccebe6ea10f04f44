//go:build amd64

package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

// checkTierMatchesScalar runs every coefficient over a length grid that
// covers the 32-byte vector boundary and compares the active dispatch
// against the scalar oracle.
func checkTierMatchesScalar(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 31, 32, 33, 64, 95, 256, 1000} {
		src := make([]byte, n)
		rng.Read(src)
		for c := 0; c < 256; c++ {
			want := make([]byte, n)
			MulSliceScalar(byte(c), src, want)
			got := make([]byte, n)
			MulSlice(byte(c), src, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("MulSlice(c=%#x, n=%d) mismatch", c, n)
			}
			acc := make([]byte, n)
			rng.Read(acc)
			wantAcc := append([]byte(nil), acc...)
			MulAddSliceScalar(byte(c), src, wantAcc)
			MulAddSlice(byte(c), src, acc)
			if !bytes.Equal(acc, wantAcc) {
				t.Fatalf("MulAddSlice(c=%#x, n=%d) mismatch", c, n)
			}
		}
	}
}

// TestKernelTiersAMD64 forces each detected tier in turn — GFNI, AVX2,
// generic — so one run on a GFNI-capable box validates all three, not
// just whichever the dispatch picked.
func TestKernelTiersAMD64(t *testing.T) {
	savedGFNI, savedAVX2 := useGFNI, useAVX2
	defer func() { useGFNI, useAVX2 = savedGFNI, savedAVX2 }()

	if savedGFNI {
		useGFNI, useAVX2 = true, savedAVX2
		t.Run("gfni", checkTierMatchesScalar)
	} else {
		t.Log("CPU lacks GFNI; tier not exercised")
	}
	if savedAVX2 {
		useGFNI, useAVX2 = false, true
		t.Run("avx2", checkTierMatchesScalar)
	} else {
		t.Log("CPU lacks AVX2; tier not exercised")
	}
	useGFNI, useAVX2 = false, false
	t.Run("generic", checkTierMatchesScalar)
}

// TestGFNIMatrices checks the bit-matrix compilation against Mul for
// every coefficient/byte pair, independently of the assembly.
func TestGFNIMatrices(t *testing.T) {
	if !useGFNI {
		t.Skip("CPU lacks GFNI; matrices not built")
	}
	affine := func(m uint64, x byte) byte {
		var out byte
		for i := 0; i < 8; i++ {
			row := byte(m >> ((7 - i) * 8))
			var parity byte
			for and := row & x; and != 0; and >>= 1 {
				parity ^= and & 1
			}
			out |= parity << i
		}
		return out
	}
	for c := 0; c < 256; c++ {
		m := gfniMatrices[c]
		for x := 0; x < 256; x++ {
			if got, want := affine(m, byte(x)), Mul(byte(c), byte(x)); got != want {
				t.Fatalf("matrix[%#x] applied to %#x = %#x, want %#x", c, x, got, want)
			}
		}
	}
}
