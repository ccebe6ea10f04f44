package hdfsraid

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
)

// TestReadFillsEveryByte pins makeNoZero's contract: readInto and
// readRange write every byte of the buffer they are given, whatever it
// held, on every step of the ladder. Each read lands in a buffer of
// 0x00s and then in one of 0xFFs, and both must come back as the file's
// bytes, so a byte no step writes fails one pass or the other. The file
// has three extents of k, k and 1 blocks: its last stripe is shortened
// to one live block (its other data symbols are known zeros, and a
// degraded read of it takes the read plan) and its last block is cut
// short. It is read intact, with the node of a replica of data symbol 0
// down, with two nodes down, and with two replicas corrupt; on blocks
// of one cell, and of two and a half cells for the paper's pair of
// codes; then again with the read cache holding the middle extent and
// not the others. Get, ReadTo and ReadBlockInto must deliver the same
// bytes in every state.
func TestReadFillsEveryByte(t *testing.T) {
	const oneCell = 16 << 10
	damages := []struct {
		name  string
		apply func(t *testing.T, s *Store)
	}{
		{"intact", func(*testing.T, *Store) {}},
		{"node-down", func(t *testing.T, s *Store) {
			if err := s.KillNode(s.code.Placement().SymbolNodes[0][0]); err != nil {
				t.Fatal(err)
			}
		}},
		{"two-nodes-down", func(t *testing.T, s *Store) {
			// Both replicas of data symbol 0 on a double-replication
			// code; the nodes of data symbols 0 and 1 on RS.
			p := s.code.Placement()
			for _, v := range append(slices.Clone(p.SymbolNodes[0]), p.SymbolNodes[1]...)[:2] {
				if err := s.KillNode(v); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"corrupt", func(t *testing.T, s *Store) {
			for _, stripe := range []int{0, 2} {
				if err := s.CorruptBlock(s.code.Placement().SymbolNodes[0][0], "f", stripe, 0); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, tc := range []struct {
		code string
		bs   int
	}{
		{"pentagon", oneCell}, {"rs-9-6", oneCell}, {"heptagon-local", oneCell},
		{"pentagon", cellsBlock}, {"rs-9-6", cellsBlock},
	} {
		for _, dmg := range damages {
			t.Run(fmt.Sprintf("%s/bs=%d/%s", tc.code, tc.bs, dmg.name), func(t *testing.T) {
				testReadFillsEveryByte(t, tc.code, tc.bs, dmg.apply)
			})
		}
	}
}

func testReadFillsEveryByte(t *testing.T, codeName string, bs int, damage func(*testing.T, *Store)) {
	c, err := core.New(codeName)
	if err != nil {
		t.Fatal(err)
	}
	k := c.DataSymbols()
	s, err := CreateExt(t.TempDir(), codeName, bs, k)
	if err != nil {
		t.Fatal(err)
	}
	bio := &countingIO{}
	s.SetBlockIO(bio)
	data := randomFile(t, (2*k+1)*bs-100, 92)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	damage(t, s)
	bio.frozen.Store(true) // no heal repairs the damage between two reads
	fi, _ := s.Info("f")

	// Whole file, a window inside one block, a run of blocks cut at both
	// ends, across the first extent boundary, the tail block and a
	// window inside it.
	n := len(data)
	ranges := [][2]int{
		{0, n}, {1, bs - 1}, {bs / 3, 2*bs + bs/3},
		{k*bs - bs/2, k*bs + bs/2}, {2 * k * bs, n}, {2*k*bs + 7, n - 3},
	}
	// check reads every range through read into a buffer of 0x00s and
	// then one of 0xFFs.
	check := func(what string, read func(p []byte, off int64) error) {
		t.Helper()
		for _, r := range ranges {
			for _, fill := range []byte{0x00, 0xFF} {
				p := bytes.Repeat([]byte{fill}, r[1]-r[0])
				if err := read(p, int64(r[0])); err != nil {
					t.Fatalf("%s [%d, %d) into %#02x: %v", what, r[0], r[1], fill, err)
				}
				if i := firstDiff(p, data[r[0]:r[1]]); i >= 0 {
					t.Fatalf("%s [%d, %d) into %#02x: byte %d is %#02x, want %#02x", what, r[0], r[1], fill, r[0]+i, p[i], data[r[0]+i])
				}
			}
		}
	}
	readInto := func(p []byte, off int64) error {
		s.mu.RLock()
		defer s.mu.RUnlock()
		_, err := s.readInto("f", fi, p, off)
		return err
	}
	readRange := func(p []byte, off int64) error {
		s.mu.RLock()
		defer s.mu.RUnlock()
		_, err := s.readRange("f", fi, p, off)
		return err
	}
	readTo := func(p []byte, off int64) error {
		var buf bytes.Buffer
		if _, err := s.ReadTo(&buf, "f", off, int64(len(p)), nil); err != nil {
			return err
		}
		copy(p, buf.Bytes())
		return nil
	}
	check("readRange", readRange)
	check("readInto", readInto)
	check("ReadTo", readTo)
	if got, err := s.Get("f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get: err %v, bytes equal %v", err, bytes.Equal(got, data))
	}
	// The tail stripe's data symbols past its one block are known zeros.
	dst := make([]byte, bs)
	for sym := 1; sym < k; sym++ {
		for _, fill := range []byte{0x00, 0xFF} {
			for i := range dst {
				dst[i] = fill
			}
			if _, err := s.ReadBlockInto(dst, "f", 2, sym); err != nil {
				t.Fatal(err)
			}
			if i := slices.IndexFunc(dst, func(b byte) bool { return b != 0 }); i >= 0 {
				t.Fatalf("known-zero symbol %d into %#02x: byte %d is %#02x", sym, fill, i, dst[i])
			}
		}
	}

	// The cache holds the middle extent: a miss, a hit, then a miss.
	s.SetReadCache(NewReadCache(64 << 20))
	s.cache.add(extentKey{s.manifest.ids["f"], 1}, bytes.Clone(data[k*bs:2*k*bs]))
	check("cached readInto", readInto)
	check("cached ReadTo", readTo)
	if got, err := s.Get("f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("cached Get: err %v, bytes equal %v", err, bytes.Equal(got, data))
	}
}

// firstDiff is the first index where a and b, of one length, differ, or
// -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
