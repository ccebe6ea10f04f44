package block

import (
	"math/bits"

	"repro/internal/gf256"
)

// useFold gates crc32cFold. It is a variable so tests can force each tier.
var useFold = gf256.HasAVX512CLMUL()

// foldConsts are crc32cFold's multipliers (crc_amd64.s): x^(d+63) and
// x^(d-1) mod P, bit-reversed, for d = 2048, 512, 384, 256, 128; then 0.
var foldConsts [12]uint64

func init() {
	for i := range 10 { // even i: d+63, for a lane's low qword; odd: d-1, its high
		v, d := uint64(1), []int{2048, 512, 384, 256, 128}[i/2]
		for e := d - 1 + 64*(1-i%2); e > 0; e-- { // v = x^e mod P, one x at a time
			if v <<= 1; v>>32 != 0 {
				v ^= 1<<32 | 0x1EDC6F41
			}
		}
		foldConsts[i] = bits.Reverse64(v)
	}
}

//go:noescape
func crc32cFold(crc uint32, p []byte) uint32
