// Package gf256 implements arithmetic over the finite field GF(2^8).
//
// The field is constructed with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the same polynomial used by
// Reed-Solomon implementations in RAID-6 and HDFS-RAID. Multiplication
// and division are table-driven via discrete logarithms of the generator
// element 2, which makes the scalar operations constant-time lookups and
// the fused slice kernels suitable for encoding multi-megabyte blocks.
//
// The package is the substrate for the heptagon-local code's global
// parities (a RAID-6-style construction) and for the Reed-Solomon
// baselines used in the reliability comparison.
package gf256

import "fmt"

// Poly is the primitive polynomial generating the field, with the x^8
// term included (0x11D = x^8 + x^4 + x^3 + x^2 + 1).
const Poly = 0x11D

var (
	expTable [512]byte // exp[i] = 2^i, doubled to avoid a mod in Mul
	logTable [256]byte // log[x] = discrete log base 2; log[0] unused
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
	initSplitTables() // kernels.go; depends on the tables above
	initArchKernels() // per-arch table compilation (e.g. GFNI matrices)
}

// Mul returns the product of a and b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Inv returns the multiplicative inverse of a. Inv panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: zero has no inverse")
	}
	return expTable[255-int(logTable[a])]
}

// Exp returns the generator element 2 raised to the power n. Negative n
// is interpreted modulo 255, the multiplicative group order.
func Exp(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return expTable[n]
}

// Pow returns a raised to the power n. Pow(0, 0) is defined as 1.
func Pow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	l := (int(logTable[a]) * n) % 255
	if l < 0 {
		l += 255
	}
	return expTable[l]
}

// MulSlice sets dst[i] = c * src[i] for all i. The slices must have equal
// length. c == 0 zeroes dst; c == 1 copies src. The general case runs
// the branch-free split-table kernel (see kernels.go); MulSliceScalar is
// the reference implementation.
func MulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("gf256: MulSlice length mismatch %d != %d", len(src), len(dst)))
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
	case 1:
		copy(dst, src)
	default:
		MulSliceTab(&mulTableLow[c], &mulTableHigh[c], src, dst)
	}
}

// MulAddSlice sets dst[i] ^= c * src[i] for all i — the fused
// multiply-accumulate used by matrix-vector encoding. The slices must
// have equal length. c == 1 is a word-wide XOR; the general case runs
// the branch-free split-table kernel. MulAddSliceScalar is the
// reference implementation.
func MulAddSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("gf256: MulAddSlice length mismatch %d != %d", len(src), len(dst)))
	}
	switch c {
	case 0:
		return
	case 1:
		XorSlice(src, dst)
	default:
		MulAddSliceTab(&mulTableLow[c], &mulTableHigh[c], src, dst)
	}
}

// MulSliceScalar is the original log/exp-table MulSlice, kept as the
// correctness oracle for the split-table kernels: two dependent lookups
// and a zero-test branch per byte.
func MulSliceScalar(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("gf256: MulSliceScalar length mismatch %d != %d", len(src), len(dst)))
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
	case 1:
		copy(dst, src)
	default:
		lc := int(logTable[c])
		for i, s := range src {
			if s == 0 {
				dst[i] = 0
			} else {
				dst[i] = expTable[lc+int(logTable[s])]
			}
		}
	}
}

// MulAddSliceScalar is the original log/exp-table MulAddSlice, kept as
// the correctness oracle for the split-table kernels.
func MulAddSliceScalar(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("gf256: MulAddSliceScalar length mismatch %d != %d", len(src), len(dst)))
	}
	switch c {
	case 0:
		return
	case 1:
		for i, s := range src {
			dst[i] ^= s
		}
	default:
		lc := int(logTable[c])
		for i, s := range src {
			if s != 0 {
				dst[i] ^= expTable[lc+int(logTable[s])]
			}
		}
	}
}
