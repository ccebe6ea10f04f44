package loadgen

import (
	"bytes"
	"hash/crc32"
	"testing"
)

// TestContentDeterministic: any client must be able to verify any read
// from the name alone, so Content must be a pure function of name and
// size — and, because the benchmark's datasets are built from it, its
// bytes must not change across commits: the golden CRC-32C values pin
// them.
func TestContentDeterministic(t *testing.T) {
	a := Content("file-003", 5000)
	b := Content("file-003", 5000)
	if !bytes.Equal(a, b) {
		t.Fatal("Content is not deterministic for the same name")
	}
	if bytes.Equal(a, Content("file-004", 5000)) {
		t.Fatal("distinct names produced identical content")
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for _, g := range []struct {
		name string
		n    int
		crc  uint32
	}{
		{"file-003", 5000, 0xc7e12375},
		{"file-000", 1 << 16, 0x7a34e4ae},
	} {
		if got := crc32.Checksum(Content(g.name, g.n), castagnoli); got != g.crc {
			t.Errorf("Content(%q, %d) CRC-32C = %#08x, want %#08x: the benchmark's data changed", g.name, g.n, got, g.crc)
		}
	}
}
