//go:build arm64

package gf256

// NEON dispatch. TBL is the AArch64 byte-shuffle: it indexes a 16-byte
// table register per lane, which is exactly the split-nibble lookup the
// AVX2 kernels do with VPSHUFB. ASIMD is architecturally mandatory on
// AArch64, so there is nothing to detect at runtime.

// useNEON gates the assembly kernels. It is a variable, not a
// constant, so tests can force the generic path.
var useNEON = true

func initArchKernels() {}

//go:noescape
func mulVectorNEON(lo, hi *[16]byte, src, dst []byte, n int)

//go:noescape
func mulAddVectorNEON(lo, hi *[16]byte, src, dst []byte, n int)

//go:noescape
func xorVectorNEON(src, dst []byte, n int)

func archMulSliceTab(lo, hi *[16]byte, src, dst []byte) int {
	n := len(src) &^ 31
	if n == 0 || !useNEON {
		return 0
	}
	mulVectorNEON(lo, hi, src, dst, n)
	return n
}

func archMulAddSliceTab(lo, hi *[16]byte, src, dst []byte) int {
	n := len(src) &^ 31
	if n == 0 || !useNEON {
		return 0
	}
	mulAddVectorNEON(lo, hi, src, dst, n)
	return n
}

func archXorSlice(src, dst []byte) int {
	n := len(src) &^ 31
	if n == 0 || !useNEON {
		return 0
	}
	xorVectorNEON(src, dst, n)
	return n
}
