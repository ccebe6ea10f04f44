package core

import (
	"fmt"
)

// Striper splits a file held in memory into fixed-size blocks, groups
// blocks into stripes of k = code.DataSymbols() blocks (zero-padding
// the tail, as HDFS-RAID does when raiding a file), and encodes each
// stripe independently (EncodeStream). The store encodes through its
// own stripe writer; the benchmark's encode rung times this one.
type Striper struct {
	Code      Code
	BlockSize int
}

// NewStriper returns a striper for the given code and block size.
func NewStriper(c Code, blockSize int) (*Striper, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("core: invalid block size %d", blockSize)
	}
	return &Striper{Code: c, BlockSize: blockSize}, nil
}

// StripeCount returns the number of stripes needed for a file of the
// given length.
func (st *Striper) StripeCount(fileLen int) int {
	if fileLen == 0 {
		return 0
	}
	k := st.Code.DataSymbols()
	blocks := (fileLen + st.BlockSize - 1) / st.BlockSize
	return (blocks + k - 1) / k
}

// EncodedStripe is the encoded form of one stripe: the symbol buffers in
// code order (data first, then parities).
type EncodedStripe struct {
	Index   int
	Symbols [][]byte
}

// stripeBlocks assembles stripe i's k data blocks. Blocks fully inside
// data alias it directly (no copy, no allocation); only blocks that
// overhang the file end are drawn from pool and zero-padded. It returns
// the blocks plus the pooled buffers to recycle when the stripe is
// done.
func (st *Striper) stripeBlocks(data []byte, i int, pool *BlockPool) (blocks, pooled [][]byte) {
	k := st.Code.DataSymbols()
	blocks = make([][]byte, k)
	for j := 0; j < k; j++ {
		off := (i*k + j) * st.BlockSize
		if off+st.BlockSize <= len(data) {
			blocks[j] = data[off : off+st.BlockSize]
			continue
		}
		b := pool.GetZero()
		if off < len(data) {
			copy(b, data[off:])
		}
		blocks[j] = b
		pooled = append(pooled, b)
	}
	return blocks, pooled
}
