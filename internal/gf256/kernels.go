package gf256

import "encoding/binary"

// Split-table slice kernels.
//
// The scalar kernels pay two dependent table lookups (log, then exp) and
// a zero-test branch per byte. The kernels here instead precompute, for
// every coefficient c, two 16-entry nibble tables:
//
//	mulTableLow[c][x]  = c * x         (x the low nibble)
//	mulTableHigh[c][x] = c * (x << 4)  (x the high nibble)
//
// so c*s = mulTableLow[c][s&0x0F] ^ mulTableHigh[c][s>>4] with no
// branches and both tables (32 bytes per coefficient, 8 KiB total)
// resident in L1. The inner loops are 8-way unrolled with full-slice
// re-slicing so the compiler eliminates bounds checks: nibble indices
// are provably < 16. This is the same low/high nibble decomposition
// SIMD GF(2^8) kernels feed to byte-shuffle instructions, kept in
// portable Go.
//
// The tables for all 256 coefficients are built once at package
// initialization (initSplitTables, called from the init in gf256.go),
// so "compiling" an encoding matrix into nibble tables is a pointer
// lookup, not a per-matrix allocation.

var (
	mulTableLow  [256][16]byte
	mulTableHigh [256][16]byte
)

// initSplitTables fills the nibble tables. It is called from init() in
// gf256.go after the exp/log tables exist (init order within the
// package is explicit there, not filename-dependent).
func initSplitTables() {
	for c := 0; c < 256; c++ {
		for x := 0; x < 16; x++ {
			mulTableLow[c][x] = Mul(byte(c), byte(x))
			mulTableHigh[c][x] = Mul(byte(c), byte(x<<4))
		}
	}
}

// Tables returns the low- and high-nibble product tables of coefficient
// c: c*s = lo[s&0x0F] ^ hi[s>>4]. Compiled coding plans hold these
// pointers per matrix entry so the hot loop never re-indexes by
// coefficient.
func Tables(c byte) (lo, hi *[16]byte) {
	return &mulTableLow[c], &mulTableHigh[c]
}

// MulSliceTab sets dst[i] = lo[src[i]&0x0F] ^ hi[src[i]>>4] — the
// split-table multiply kernel with the coefficient pre-resolved to its
// nibble tables (see Tables). The slices must have equal length. On
// amd64 with AVX2 the bulk of the slice runs a VPSHUFB kernel (32
// bytes per shuffle pair); the portable 8-way unrolled loop handles
// the rest and every other platform.
func MulSliceTab(lo, hi *[16]byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: MulSliceTab length mismatch")
	}
	done := archMulSliceTab(lo, hi, src, dst)
	mulSliceTabGeneric(lo, hi, src[done:], dst[done:])
}

func mulSliceTabGeneric(lo, hi *[16]byte, src, dst []byte) {
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] = lo[s[0]&0x0F] ^ hi[s[0]>>4]
		d[1] = lo[s[1]&0x0F] ^ hi[s[1]>>4]
		d[2] = lo[s[2]&0x0F] ^ hi[s[2]>>4]
		d[3] = lo[s[3]&0x0F] ^ hi[s[3]>>4]
		d[4] = lo[s[4]&0x0F] ^ hi[s[4]>>4]
		d[5] = lo[s[5]&0x0F] ^ hi[s[5]>>4]
		d[6] = lo[s[6]&0x0F] ^ hi[s[6]>>4]
		d[7] = lo[s[7]&0x0F] ^ hi[s[7]>>4]
	}
	for i := n; i < len(dst); i++ {
		s := src[i]
		dst[i] = lo[s&0x0F] ^ hi[s>>4]
	}
}

// MulAddSliceTab sets dst[i] ^= lo[src[i]&0x0F] ^ hi[src[i]>>4] — the
// fused multiply-accumulate kernel with pre-resolved nibble tables.
// The slices must have equal length. Dispatches like MulSliceTab.
func MulAddSliceTab(lo, hi *[16]byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: MulAddSliceTab length mismatch")
	}
	done := archMulAddSliceTab(lo, hi, src, dst)
	mulAddSliceTabGeneric(lo, hi, src[done:], dst[done:])
}

func mulAddSliceTabGeneric(lo, hi *[16]byte, src, dst []byte) {
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] ^= lo[s[0]&0x0F] ^ hi[s[0]>>4]
		d[1] ^= lo[s[1]&0x0F] ^ hi[s[1]>>4]
		d[2] ^= lo[s[2]&0x0F] ^ hi[s[2]>>4]
		d[3] ^= lo[s[3]&0x0F] ^ hi[s[3]>>4]
		d[4] ^= lo[s[4]&0x0F] ^ hi[s[4]>>4]
		d[5] ^= lo[s[5]&0x0F] ^ hi[s[5]>>4]
		d[6] ^= lo[s[6]&0x0F] ^ hi[s[6]>>4]
		d[7] ^= lo[s[7]&0x0F] ^ hi[s[7]>>4]
	}
	for i := n; i < len(dst); i++ {
		s := src[i]
		dst[i] ^= lo[s&0x0F] ^ hi[s>>4]
	}
}

// XorSlice sets dst[i] ^= src[i] — the coefficient-1 fast path of
// MulAddSlice and the workhorse of the XOR-parity codes. The bulk runs
// 32 bytes per iteration under AVX2; elsewhere 8 bytes at a time
// through encoding/binary, which the compiler lowers to single 64-bit
// loads and xors.
func XorSlice(src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: XorSlice length mismatch")
	}
	done := archXorSlice(src, dst)
	xorSliceGeneric(src[done:], dst[done:])
}

func xorSliceGeneric(src, dst []byte) {
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		d := binary.LittleEndian.Uint64(dst[i:])
		s := binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], d^s)
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}
