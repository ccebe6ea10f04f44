//go:build arm64

package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestKernelTiersARM64 runs the NEON kernels and the forced-generic
// path against the scalar oracle over every coefficient and a length
// grid spanning the 32-byte vector boundary. CI executes this under
// qemu-user so the TBL kernels actually run, not merely assemble.
func TestKernelTiersARM64(t *testing.T) {
	saved := useNEON
	defer func() { useNEON = saved }()

	check := func(t *testing.T) {
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

	useNEON = true
	t.Run("neon", check)
	useNEON = false
	t.Run("generic", check)
}

func TestXorSliceNEON(t *testing.T) {
	saved := useNEON
	defer func() { useNEON = saved }()
	useNEON = true

	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 32, 33, 96, 1000} {
		src := make([]byte, n)
		dst := make([]byte, n)
		rng.Read(src)
		rng.Read(dst)
		want := make([]byte, n)
		for i := range want {
			want[i] = src[i] ^ dst[i]
		}
		XorSlice(src, dst)
		if !bytes.Equal(dst, want) {
			t.Fatalf("XorSlice(n=%d) mismatch", n)
		}
	}
}
