package hdfsraid

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/block"
	"repro/internal/core"
)

// cellsBlock is the multi-cell test geometry: two whole cells and a
// short one.
const cellsBlock = 5 * block.CellSize / 2

// parentFrameIO writes every block frame the way the store did before
// frames had cells: the payload, then one CRC-32C of all of it.
type parentFrameIO struct {
	BlockIO
	blockSize int
}

func (p parentFrameIO) WriteFile(path string, frame []byte, perm fs.FileMode) error {
	payload := frame[:p.blockSize]
	old := binary.LittleEndian.AppendUint32(bytes.Clone(payload), block.Checksum(payload))
	return p.BlockIO.WriteFile(path, old, perm)
}

// flipByte flips one byte of a file in place.
func flipByte(t *testing.T, path string, at int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[at] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWindowReadBytes is the exact-count gate of the windowed ladder on
// 1 MiB blocks: a ranged read takes from each block file it opens the
// checksum table and the cells its window touches, degraded or not, a
// whole-file read the data blocks' frames (of the tail block, as far as
// the file reaches), and neither opens a file more than it did when a
// frame had one checksum.
func TestWindowReadBytes(t *testing.T) {
	const bs = 1 << 20
	cell, table := int64(block.CellSize), int64(4*block.Cells(bs))
	for _, codeName := range []string{"rs-9-6", "pentagon"} {
		t.Run(codeName, func(t *testing.T) {
			s, err := Create(t.TempDir(), codeName, bs)
			if err != nil {
				t.Fatal(err)
			}
			bio := &countingIO{}
			s.SetBlockIO(bio)
			k := s.code.DataSymbols()
			data := randomFile(t, 6*bs+bs/3, 93) // a full rs-9-6 stripe and a tail; 7 live pentagon symbols
			if err := s.Put("f", data); err != nil {
				t.Fatal(err)
			}
			// took runs one read and returns the block files it opened
			// and the bytes it read from them.
			took := func(read func() ([]byte, error), want []byte) (opens, n int64) {
				t.Helper()
				o0, b0 := bio.reads.Load(), bio.bytes.Load()
				got, err := read()
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("read: err %v, bytes equal %v", err, bytes.Equal(got, want))
				}
				return bio.reads.Load() - o0, bio.bytes.Load() - b0
			}
			readAt := func(off, n int) (int64, int64) {
				t.Helper()
				p := make([]byte, n)
				return took(func() ([]byte, error) {
					_, err := s.ReadAt(p, "f", int64(off))
					return p, err
				}, data[off:off+n])
			}
			// Six whole frames, and of the tail block the table and the
			// cells the file's last bytes reach.
			whole := 6*int64(block.FrameSize(bs)) + table + int64(block.Cells(bs/3))*cell
			before := cacheCount(s, cBlockReadBytes)
			if opens, n := took(func() ([]byte, error) { return s.Get("f") }, data); opens != 7 || n != whole {
				t.Errorf("Get: %d opens, %d bytes; want the 7 data blocks, %d bytes", opens, n, whole)
			}
			if got := cacheCount(s, cBlockReadBytes) - before; got != whole {
				t.Errorf("store_block_read_bytes_total moved by %d over a Get, want %d", got, whole)
			}
			// 64 KiB inside block 1, cutting two cells.
			if opens, n := readAt(bs+100_000, 64<<10); opens != 1 || n != 2*cell+table {
				t.Errorf("64 KiB ReadAt: %d opens, %d bytes; want 1, %d", opens, n, 2*cell+table)
			}
			// 64 KiB over the boundary of blocks 1 and 2: a cell of each.
			if opens, n := readAt(2*bs-1000, 64<<10); opens != 2 || n != 2*(cell+table) {
				t.Errorf("64 KiB ReadAt over two blocks: %d opens, %d bytes; want 2, %d", opens, n, 2*(cell+table))
			}
			// 1 MiB from inside block 0: the range plus what the two
			// cells it cuts hold outside it.
			if opens, n := readAt(bs/3+17, bs); opens != 2 || n <= bs || n > bs+2*cell+2*table {
				t.Errorf("1 MiB ReadAt: %d opens, %d bytes; want 2, at most %d", opens, n, bs+2*cell+2*table)
			}
			// Block 1's first holder unreachable (no verdict about its
			// bytes, so nothing to heal): RS pays the same window of k
			// blocks, pentagon of the sibling replica.
			bio.down = filepath.Base(s.nodeDir(s.code.Placement().SymbolNodes[1][0]))
			wantOpens := int64(1)
			if codeName == "rs-9-6" {
				wantOpens = int64(k)
			}
			if opens, n := readAt(bs+100_000, 64<<10); opens != wantOpens || n != wantOpens*(2*cell+table) {
				t.Errorf("degraded 64 KiB ReadAt: %d opens, %d bytes; want %d, %d", opens, n, wantOpens, wantOpens*(2*cell+table))
			}
		})
	}
}

// testCellDamage is TestOneReaderEquivalence's damage to one cell of a
// multi-cell block, data block 0's first replica. Outside every window
// read, no ranged read sees it — each returns exact bytes, undegraded —
// and it is Scrub's to find and heal; inside one, the read falls over
// to the sibling replica or decodes, heals the replica, and the next
// read of the window is intact.
func testCellDamage(t *testing.T, codeName string, inside bool) {
	s, err := Create(t.TempDir(), codeName, cellsBlock)
	if err != nil {
		t.Fatal(err)
	}
	bio := &countingIO{}
	s.SetBlockIO(bio)
	k := s.code.DataSymbols()
	data := randomFile(t, k*cellsBlock+1, 94)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	fi, _ := s.Info("f")
	at := 2*block.CellSize + 7 // in the short last cell
	if inside {
		at = 7
	}
	flipByte(t, s.extentBlockPath(s.code.Placement().SymbolNodes[0][0], "f", fi, 0, 0, 0), at)
	// Windows inside block 0's first two cells, and one over the
	// blocks behind it.
	for i, w := range [][2]int{{1, 100}, {block.CellSize - 10, 20}, {2*block.CellSize - 50, 50}, {cellsBlock + 5, 3 * cellsBlock}} {
		p := make([]byte, w[1])
		if _, err := s.ReadAt(p, "f", int64(w[0])); err != nil || !bytes.Equal(p, data[w[0]:w[0]+w[1]]) {
			t.Fatalf("ReadAt(off=%d, n=%d): err %v, bytes equal %v", w[0], w[1], err, bytes.Equal(p, data[w[0]:w[0]+w[1]]))
		}
		heals, fsck := cacheCount(s, cReadHeal), mustFsck(t, s)
		switch {
		case !inside && (heals != 0 || cacheCount(s, cReadsDegraded) != 0 || fsck.Corrupt != 1):
			t.Fatalf("window %d: %d heals, %d degraded reads, fsck %+v; want the damage unseen", i, heals, cacheCount(s, cReadsDegraded), fsck)
		case inside && (heals != 1 || !fsck.Healthy()):
			t.Fatalf("window %d: %d heals, fsck %+v; want the first read to have healed the replica", i, heals, fsck)
		}
	}
	if !inside {
		rep, err := s.Scrub(0)
		if err != nil || rep.CorruptFound != 1 || rep.Healed != 1 {
			t.Fatalf("Scrub = %+v, %v; want the one bad cell found and healed", rep, err)
		}
		if fsck := mustFsck(t, s); !fsck.Healthy() {
			t.Fatalf("fsck after scrub = %+v", fsck)
		}
	}
	// The healed replica serves the window again, alone.
	degraded, opens := cacheCount(s, cReadsDegraded), bio.reads.Load()
	p := make([]byte, 100)
	if _, err := s.ReadAt(p, "f", 1); err != nil || !bytes.Equal(p, data[1:101]) {
		t.Fatalf("ReadAt after heal: %v", err)
	}
	if d, o := cacheCount(s, cReadsDegraded)-degraded, bio.reads.Load()-opens; d != 0 || o != 1 {
		t.Fatalf("read after heal: %d degraded, %d block files opened; want an intact read of one", d, o)
	}
}

// TestLaterPieceDamage: a flipped byte in the third piece of a 1 MiB
// block's run of whole cells — a piece other than the first, which only
// a run of more than two pieces has — is a checksum verdict from
// readBlockFile, as damage in the first piece is, never a transient
// error to retry. So a read of the block falls over to the sibling
// replica or decodes, returns exact bytes, and heals the replica once.
func TestLaterPieceDamage(t *testing.T) {
	const bs = 1 << 20
	for _, codeName := range []string{"rs-9-6", "pentagon"} {
		t.Run(codeName, func(t *testing.T) {
			s, err := Create(t.TempDir(), codeName, bs)
			if err != nil {
				t.Fatal(err)
			}
			data := randomFile(t, 2*bs+1, 97)
			if err := s.Put("f", data); err != nil {
				t.Fatal(err)
			}
			fi, _ := s.Info("f")
			path := s.extentBlockPath(s.code.Placement().SymbolNodes[0][0], "f", fi, 0, 0, 0)
			flipByte(t, path, 2*pieceCells*block.CellSize+7)
			if _, err := readBlockFile(osBlockIO{}, s.payloadPool, path, make([]byte, bs), 0); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("readBlockFile of the damaged block: %v, want ErrCorrupt", err)
			}
			p := make([]byte, bs)
			if _, err := s.ReadAt(p, "f", 0); err != nil || !bytes.Equal(p, data[:bs]) {
				t.Fatalf("ReadAt of the damaged block: err %v, bytes equal %v", err, bytes.Equal(p, data[:bs]))
			}
			if heals, fsck := cacheCount(s, cReadHeal), mustFsck(t, s); heals != 1 || !fsck.Healthy() {
				t.Fatalf("%d heals, fsck %+v; want the read to have healed the replica once", heals, fsck)
			}
		})
	}
}

func mustFsck(t *testing.T, s *Store) FsckReport {
	t.Helper()
	rep, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestOneCellFramesUnchanged: on blocks of at most a cell — 16 KiB, the
// served workloads' size, and exactly one cell — the store and a writer
// of the old single-checksum frame leave byte-identical node
// directories.
func TestOneCellFramesUnchanged(t *testing.T) {
	for _, bs := range []int{16 << 10, block.CellSize} {
		var dirs [2]map[string]string
		for i := range dirs {
			s, err := CreateExt(t.TempDir(), "rs-9-6", bs, 6)
			if err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				s.SetBlockIO(parentFrameIO{osBlockIO{}, bs})
			}
			if err := s.Put("f", randomFile(t, 13*bs+11, 95)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.TranscodeExtent("f", 0, "pentagon"); err != nil {
				t.Fatal(err)
			}
			dirs[i] = blockFiles(t, s)
		}
		if len(dirs[0]) == 0 || len(dirs[0]) != len(dirs[1]) {
			t.Fatalf("%d-byte blocks: %d block files vs %d from the old writer", bs, len(dirs[0]), len(dirs[1]))
		}
		for rel, frame := range dirs[0] {
			if frame != dirs[1][rel] {
				t.Errorf("%d-byte blocks: %s differs from the old writer's frame", bs, rel)
			}
		}
	}
}

// TestLegacyFrameCompat: a store of 256 KiB blocks whose every frame
// carries the old single checksum reads, scrubs, repairs and transcodes
// exactly as is — each frame is one cell spanning the block — and
// whatever rewrites a frame (a heal, a repair) leaves it in cell form.
func TestLegacyFrameCompat(t *testing.T) {
	const bs = 256 << 10
	s, err := CreateExt(t.TempDir(), "rs-9-6", bs, 6)
	if err != nil {
		t.Fatal(err)
	}
	s.SetBlockIO(parentFrameIO{osBlockIO{}, bs})
	data := randomFile(t, 8*bs+77, 96)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	s.SetBlockIO(nil)
	for rel, frame := range blockFiles(t, s) {
		if len(frame) != bs+4 {
			t.Fatalf("%s: %d bytes, want the old %d-byte frame", rel, len(frame), bs+4)
		}
	}
	check := func(step string) {
		t.Helper()
		if got, err := s.Get("f"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: Get: err %v, bytes equal %v", step, err, bytes.Equal(got, data))
		}
		for _, w := range [][2]int{{1, 100}, {bs - 5, 10}, {3*bs + 70_000, bs}} {
			p := make([]byte, w[1])
			if _, err := s.ReadAt(p, "f", int64(w[0])); err != nil || !bytes.Equal(p, data[w[0]:w[0]+w[1]]) {
				t.Fatalf("%s: ReadAt(off=%d, n=%d): err %v", step, w[0], w[1], err)
			}
		}
		if rep, err := s.Scrub(0); err != nil || rep.CorruptFound+rep.MissingFound != 0 || !rep.Wrapped {
			t.Fatalf("%s: Scrub = %+v, %v", step, rep, err)
		}
		if fsck := mustFsck(t, s); !fsck.Healthy() {
			t.Fatalf("%s: fsck = %+v", step, fsck)
		}
	}
	check("as written")
	if heals := cacheCount(s, cReadHeal); heals != 0 {
		t.Fatalf("reading old frames healed %d of them", heals)
	}

	// A heal rewrites the frame it repairs in cell form.
	fi, _ := s.Info("f")
	path := s.extentBlockPath(0, "f", fi, 0, 0, 0)
	flipByte(t, path, 200_000)
	p := make([]byte, 10)
	if _, err := s.ReadAt(p, "f", 199_995); err != nil || !bytes.Equal(p, data[199_995:200_005]) {
		t.Fatalf("ReadAt over the damaged frame: %v", err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != int64(block.FrameSize(bs)) || cacheCount(s, cReadHeal) != 1 {
		t.Fatalf("healed frame: %v, %v; %d heals; want %d bytes", st, err, cacheCount(s, cReadHeal), block.FrameSize(bs))
	}
	check("after a heal")

	if err := s.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Repair([]int{1}); err != nil {
		t.Fatal(err)
	}
	check("after a repair")
	if _, err := s.TranscodeExtent("f", 0, "pentagon"); err != nil {
		t.Fatal(err)
	}
	check("after a transcode")
}

// memBlockIO serves one in-memory block file.
type memBlockIO struct {
	BlockIO
	raw []byte
}

func (m memBlockIO) Open(string) (io.ReadCloser, error) {
	return struct {
		*bytes.Reader
		io.Closer
	}{bytes.NewReader(m.raw), io.NopCloser(nil)}, nil
}

// FuzzBlockFrame feeds readBlockFile arbitrary bytes as a block file of
// a three-cell block, and an arbitrary window: it never panics; it
// verifies exactly when the file has a frame's length and every cell
// the window touches matches its checksum, worked out here from the
// format alone; what it then returns is the file's bytes at the window,
// which is what a whole-block read returns when that verifies too.
func FuzzBlockFrame(f *testing.F) {
	const bs = 2*block.CellSize + 100
	pool := core.NewBlockPool(bs)
	payload := make([]byte, bs)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	cells := append(bytes.Clone(payload), make([]byte, 4*block.Cells(bs))...)
	block.PutCellChecksums(cells[bs:], payload)
	single := binary.LittleEndian.AppendUint32(bytes.Clone(payload), block.Checksum(payload))
	torn := bytes.Clone(cells)
	torn[block.CellSize+1] ^= 1
	for _, seed := range [][]byte{cells, single, torn, cells[:bs+8], append(bytes.Clone(cells), 0), nil} {
		f.Add(seed, uint32(0), uint32(bs))
		f.Add(seed, uint32(block.CellSize-3), uint32(10))
		f.Add(seed, uint32(bs-50), uint32(50))
	}
	f.Fuzz(func(t *testing.T, raw []byte, off, n uint32) {
		lo := int(off % bs)
		hi := lo + int(n%uint32(bs-lo+1))
		// The verdict the format dictates.
		cell, want := block.CellSize, true
		switch len(raw) {
		case bs + 4:
			cell = bs
		case block.FrameSize(bs):
		default:
			want = false
		}
		for c := lo / cell; want && c*cell < hi; c++ {
			sum := binary.LittleEndian.Uint32(raw[bs+4*c:])
			want = sum == block.Checksum(raw[c*cell:min((c+1)*cell, bs)])
		}
		bio := memBlockIO{raw: raw}
		dst := make([]byte, hi-lo)
		_, err := readBlockFile(bio, pool, "fuzz", dst, lo)
		if (err == nil) != want || (err != nil && !errors.Is(err, ErrCorrupt)) {
			t.Fatalf("window [%d,%d) of a %d-byte file: err %v, want verified=%v", lo, hi, len(raw), err, want)
		}
		if err == nil && !bytes.Equal(dst, raw[lo:hi]) {
			t.Fatalf("window [%d,%d) verified but returned other bytes", lo, hi)
		}
		whole := make([]byte, bs)
		if _, werr := readBlockFile(bio, pool, "fuzz", whole, 0); werr == nil && (err != nil || !bytes.Equal(dst, whole[lo:hi])) {
			t.Fatalf("the whole block verifies, its window [%d,%d) does not agree: %v", lo, hi, err)
		}
	})
}
