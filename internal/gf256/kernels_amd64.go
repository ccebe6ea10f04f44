//go:build amd64

package gf256

// Vector dispatch for amd64. Two tiers:
//
//   - GFNI: VGF2P8AFFINEQB evaluates an arbitrary GF(2) 8x8 bit-matrix
//     per byte, so multiply-by-c is a single instruction once c is
//     compiled to its matrix (gfniMatrices, built at init). One affine
//     op replaces the shift/mask/two-shuffle/xor AVX2 sequence. The
//     instruction is VEX-encoded by the assembler, so the gate is
//     AVX2 + the GFNI CPUID bit — no AVX-512 requirement.
//   - AVX2: the VPSHUFB kernels in kernels_amd64.s look up 32
//     low-nibble and 32 high-nibble products per shuffle pair — the
//     vector form of the split tables.
//
// Detection follows the Intel manual: the OS must have enabled YMM
// state (OSXSAVE + XCR0) and the CPU must report the feature on CPUID
// leaf 7.

// useAVX2 and useGFNI gate the assembly kernels. They are variables,
// not constants, so tests can force each tier and the generic path.
var (
	useAVX2 = detectAVX2()
	useGFNI = detectGFNI()
)

// gfniMatrices[c] is the 8x8 GF(2) bit-matrix (packed row-major, row 0
// in the most significant byte, per the VGF2P8AFFINEQB operand layout)
// whose affine transform maps x to Mul(c, x). Column j of the matrix is
// Mul(c, 1<<j): multiplication by a constant is linear over GF(2).
var gfniMatrices [256]uint64

//go:noescape
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

//go:noescape
func mulVectorAVX2(lo, hi *[16]byte, src, dst []byte, n int)

//go:noescape
func mulAddVectorAVX2(lo, hi *[16]byte, src, dst []byte, n int)

//go:noescape
func xorVectorAVX2(src, dst []byte, n int)

//go:noescape
func mulVectorGFNI(mat uint64, src, dst []byte, n int)

//go:noescape
func mulAddVectorGFNI(mat uint64, src, dst []byte, n int)

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	if ecx1&osxsave == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be OS-enabled.
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func detectGFNI() bool {
	if !detectAVX2() {
		return false
	}
	_, _, ecx7, _ := cpuidex(7, 0)
	const gfni = 1 << 8
	return ecx7&gfni != 0
}

// HasAVX512CLMUL reports whether the CPU has AVX-512F, VPCLMULQDQ and
// SSE4.2 and the OS saves opmask and ZMM state (XCR0 0xE6): the gate of
// internal/block's CRC-32C fold.
func HasAVX512CLMUL() bool {
	_, _, ecx1, _ := cpuidex(1, 0)
	_, ebx7, ecx7, _ := cpuidex(7, 0)
	if !detectAVX2() || ecx1&(1<<20) == 0 || ebx7&(1<<16) == 0 || ecx7&(1<<10) == 0 { // SSE4.2, AVX512F, VPCLMULQDQ
		return false
	}
	xcr0, _ := xgetbv0() // detectAVX2 saw OSXSAVE, so XGETBV is safe
	return xcr0&0xE6 == 0xE6
}

// initArchKernels compiles every coefficient to its GFNI bit-matrix.
// Called from init() in gf256.go after the exp/log tables exist.
func initArchKernels() {
	if !useGFNI {
		return
	}
	for c := 0; c < 256; c++ {
		var m uint64
		for i := 0; i < 8; i++ {
			var row byte
			for j := 0; j < 8; j++ {
				if Mul(byte(c), 1<<j)&(1<<i) != 0 {
					row |= 1 << j
				}
			}
			m |= uint64(row) << ((7 - i) * 8)
		}
		gfniMatrices[c] = m
	}
}

// The nibble tables determine the coefficient: lo[1] = Mul(c, 1) = c.
// That keeps the GFNI tier behind the same table-pointer dispatch the
// compiled coding plans already use, with one byte load to recover c.

func archMulSliceTab(lo, hi *[16]byte, src, dst []byte) int {
	n := len(src) &^ 31
	if n == 0 {
		return 0
	}
	if useGFNI {
		mulVectorGFNI(gfniMatrices[lo[1]], src, dst, n)
		return n
	}
	if useAVX2 {
		mulVectorAVX2(lo, hi, src, dst, n)
		return n
	}
	return 0
}

func archMulAddSliceTab(lo, hi *[16]byte, src, dst []byte) int {
	n := len(src) &^ 31
	if n == 0 {
		return 0
	}
	if useGFNI {
		mulAddVectorGFNI(gfniMatrices[lo[1]], src, dst, n)
		return n
	}
	if useAVX2 {
		mulAddVectorAVX2(lo, hi, src, dst, n)
		return n
	}
	return 0
}

func archXorSlice(src, dst []byte) int {
	n := len(src) &^ 31
	if n == 0 || !useAVX2 {
		return 0
	}
	xorVectorAVX2(src, dst, n)
	return n
}
