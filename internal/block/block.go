// Package block provides the block primitives shared by every coding
// scheme: the integrity checksum and the cell-checksummed frame a
// stored block is written as.
//
// HDFS stores files as a sequence of large blocks (64-256 MB in the
// paper's clusters). All codes in this repository operate stripe by
// stripe on groups of such blocks; this package is deliberately free of
// any coding logic.
package block

import (
	"encoding/binary"
	"hash/crc32"
)

// Checksum returns the CRC-32C (Castagnoli) checksum of a block, the
// same family of checksum HDFS uses for block integrity: a fold kernel
// where the CPU has one (crc_amd64.s), hash/crc32 for the rest.
func Checksum(b []byte) uint32 {
	var crc uint32
	if n := len(b) &^ 255; n > 0 && useFold {
		crc, b = ^crc32cFold(^crc, b[:n]), b[n:]
	}
	return crc32.Update(crc, castagnoli, b)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CellSize is the granularity of a stored block's integrity check: a
// block frame is the payload followed by one little-endian Checksum per
// CellSize bytes of it (the last cell may be short), so a reader that
// wants a byte range verifies only the cells the range touches — HDFS
// checksums per chunk, not per block, for the same reason. A payload no
// longer than one cell has the single-checksum frame the store has
// always written.
const CellSize = 64 << 10

// Cells returns the number of cells in a payload of n bytes (n > 0).
func Cells(n int) int { return (n + CellSize - 1) / CellSize }

// FrameSize returns the on-disk size of the frame of an n-byte payload.
func FrameSize(n int) int { return n + 4*Cells(n) }

// PutCellChecksums writes the checksum table of payload into table,
// which must hold 4*Cells(len(payload)) bytes.
func PutCellChecksums(table, payload []byte) {
	for c := 0; len(payload) > 0; c++ {
		cell := payload[:min(CellSize, len(payload))]
		binary.LittleEndian.PutUint32(table[4*c:], Checksum(cell))
		payload = payload[len(cell):]
	}
}
