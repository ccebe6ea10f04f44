//go:build !amd64

package block

var useFold = false

func crc32cFold(uint32, []byte) uint32 { panic("block: no CRC-32C fold on this architecture") }
