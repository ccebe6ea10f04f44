#include "textflag.h"

// func crc32cFold(crc uint32, p []byte) uint32
// Returns the CRC-32C register after p, starting from register crc
// (neither inverted); len(p) is a positive multiple of 256.
//
// Four ZMM accumulators hold 256 bytes as 16 reflected 128-bit lanes.
// Folding a lane forward by d bits multiplies its low qword by
// x^(d+63) mod P and its high qword by x^(d-1) mod P (P = 0x1EDC6F41;
// the extra x undoes the one-bit shift of a reflected carry-less
// product) and XORs the two 96-bit products into the lane d bits on.
// k = foldConsts holds those pairs for d = 2048 (k[0:2], the 256-byte
// loop), 512 (k[2:4], four accumulators into one), then 384, 256, 128
// and zero (k[4:12], a ZMM's lanes into its last). The 128-bit
// remainder is congruent to the whole message mod P, so its CRC — two
// CRC32Q from a zero register — is the message's; no Barrett step.
TEXT ·crc32cFold(SB), NOSPLIT, $0-36
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX
	LEAQ ·foldConsts(SB), DX
	MOVL crc+0(FP), AX

	VMOVD           AX, X4
	VMOVDQU64       (SI), Z0
	VMOVDQU64       64(SI), Z1
	VMOVDQU64       128(SI), Z2
	VMOVDQU64       192(SI), Z3
	VPXORD          Z4, Z0, Z0  // the register enters through the first dword
	VBROADCASTI32X4 (DX), Z5    // fold by 2048 bits, every lane
	ADDQ            $256, SI
	SUBQ            $256, CX
	JZ              reduce

loop:
	VPCLMULQDQ $0x00, Z5, Z0, Z6
	VPCLMULQDQ $0x11, Z5, Z0, Z0
	VPTERNLOGD $0x96, (SI), Z6, Z0
	VPCLMULQDQ $0x00, Z5, Z1, Z7
	VPCLMULQDQ $0x11, Z5, Z1, Z1
	VPTERNLOGD $0x96, 64(SI), Z7, Z1
	VPCLMULQDQ $0x00, Z5, Z2, Z8
	VPCLMULQDQ $0x11, Z5, Z2, Z2
	VPTERNLOGD $0x96, 128(SI), Z8, Z2
	VPCLMULQDQ $0x00, Z5, Z3, Z9
	VPCLMULQDQ $0x11, Z5, Z3, Z3
	VPTERNLOGD $0x96, 192(SI), Z9, Z3
	ADDQ       $256, SI
	SUBQ       $256, CX
	JNZ        loop

reduce:
	VBROADCASTI32X4 16(DX), Z5 // fold by 512 bits
	VPCLMULQDQ      $0x00, Z5, Z0, Z6
	VPCLMULQDQ      $0x11, Z5, Z0, Z0
	VPTERNLOGD      $0x96, Z6, Z0, Z1
	VPCLMULQDQ      $0x00, Z5, Z1, Z6
	VPCLMULQDQ      $0x11, Z5, Z1, Z1
	VPTERNLOGD      $0x96, Z6, Z1, Z2
	VPCLMULQDQ      $0x00, Z5, Z2, Z6
	VPCLMULQDQ      $0x11, Z5, Z2, Z2
	VPTERNLOGD      $0x96, Z6, Z2, Z3

	VMOVDQU64     32(DX), Z5 // per lane: by 384, 256, 128 bits, then zero
	VPCLMULQDQ    $0x00, Z5, Z3, Z6
	VPCLMULQDQ    $0x11, Z5, Z3, Z7
	VEXTRACTI32X4 $3, Z3, X0 // the last lane, which stays where it is
	VPTERNLOGD    $0x96, Z6, Z7, Z0
	VEXTRACTI64X4 $1, Z0, Y1
	VPXOR         Y1, Y0, Y0
	VEXTRACTI128  $1, Y0, X1
	VPXOR         X1, X0, X0

	VMOVQ   X0, AX
	VPEXTRQ $1, X0, BX
	XORL    CX, CX
	CRC32Q  AX, CX
	CRC32Q  BX, CX
	MOVL    CX, ret+32(FP)
	VZEROUPPER
	RET
