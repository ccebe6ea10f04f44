package hdfsraid

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
)

// TestShortenedStripeCounts is the in-tree gate on what a shortened
// tail stripe stores and costs, so a regression fails `go test ./...`
// and not only the out-of-tree benchmark: bytes under node-*/ per live
// byte, block files written per PUT, and block reads of a degraded
// single-block read, at 16 KiB blocks.
func TestShortenedStripeCounts(t *testing.T) {
	const bs = 16 << 10
	cases := []struct {
		code          string
		files, blocks int
		writesPerPut  int
		overhead      float64 // upper bound; exact (±0.001) when exact is set
		exact         bool
		degradedReads int64 // block reads of block 0 with its first holder dead
	}{
		// 2 of 6 data symbols + 3 parities: 5 blocks for 2, not 9.
		{"rs-9-6", 20, 2, 5, 2.51, false, 2},
		// 2 of 9 data symbols + the parity, two replicas each: 6, not 20.
		{"pentagon", 20, 2, 6, 3.01, false, 1},
		// Two full stripes: the code's nominal 1.4, block for block.
		{"rs-14-10", 1, 20, 28, 1.4, true, 10},
		// Two full stripes (40) + 2 data symbols and the parity (6).
		{"pentagon", 1, 20, 46, 2.31, false, 1},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%dx%d", tc.code, tc.files, tc.blocks), func(t *testing.T) {
			s, err := Create(t.TempDir(), tc.code, bs)
			if err != nil {
				t.Fatal(err)
			}
			bio := &countingIO{}
			s.SetBlockIO(bio)
			files := map[string][]byte{}
			for i := 0; i < tc.files; i++ {
				name := fmt.Sprintf("f%02d", i)
				files[name] = randomFile(t, tc.blocks*bs, int64(400+i))
				before := bio.writes.Load()
				if err := s.Put(name, files[name]); err != nil {
					t.Fatal(err)
				}
				if writes := bio.writes.Load() - before; writes != int64(tc.writesPerPut) {
					t.Fatalf("PUT of %d blocks wrote %d block files, want %d", tc.blocks, writes, tc.writesPerPut)
				}
			}
			var stored int64
			for _, raw := range blockFiles(t, s) {
				stored += int64(len(raw))
			}
			overhead := float64(stored) / float64(tc.files*tc.blocks*bs)
			if overhead > tc.overhead+0.001 || tc.exact && math.Abs(overhead-tc.overhead) > 0.001 {
				t.Fatalf("stored %d bytes for %d live: overhead %.4f, want %v (exact=%v)",
					stored, tc.files*tc.blocks*bs, overhead, tc.overhead, tc.exact)
			}
			fsck, err := s.Fsck()
			if err != nil || !fsck.Healthy() || fsck.Orphans != 0 || fsck.Blocks != tc.files*tc.writesPerPut {
				t.Fatalf("fsck = %+v, %v; want %d healthy blocks", fsck, err, tc.files*tc.writesPerPut)
			}
			// Lose block 0's first holder: a double-replication code
			// reads the other replica, RS its plan's stored blocks only.
			if err := s.KillNode(s.code.Placement().SymbolNodes[0][0]); err != nil {
				t.Fatal(err)
			}
			bio.frozen.Store(true)
			dst := make([]byte, bs)
			before := bio.reads.Load()
			if _, err := s.ReadBlockInto(dst, "f00", 0, 0); err != nil || !bytes.Equal(dst, files["f00"][:bs]) {
				t.Fatalf("degraded ReadBlockInto: %v", err)
			}
			if reads := bio.reads.Load() - before; reads != tc.degradedReads {
				t.Fatalf("degraded single-block read cost %d block reads, want %d", reads, tc.degradedReads)
			}
		})
	}
}

// TestMetadataCostCounts pins what each mutation pays to make its
// metadata durable, in counts instead of fsync-bound timings: every
// commit is one framed record appended to manifest.log and one fsync —
// a Put, a Delete and a TranscodeExtent are one record each, and the
// move issues exactly its target layout's block writes, the superseded
// layout's removes and no rename — the snapshot is not touched, and the
// bytes are exact and the same whether the table holds 10 names or 800.
// Amortised, N operations write their N records plus one snapshot each
// time the log outgrows max(snapshot, 64 KiB), and durable.Syncs counts
// every fsync of both.
func TestMetadataCostCounts(t *testing.T) {
	const putBytes, moveBytes, delBytes = 117, 74, 35
	for _, names := range []int{10, 800} {
		t.Run(fmt.Sprint(names), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Create(dir, "rs-9-6", blockSize)
			if err != nil {
				t.Fatal(err)
			}
			size := func(name string) int64 {
				fi, err := os.Stat(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				return fi.Size()
			}
			data := randomFile(t, 2*blockSize, 600)
			if err := s.Put("f0000", data); err != nil {
				t.Fatal(err)
			}
			// The cost must not depend on the table's entries: fill it to
			// names-1 with copies of one entry.
			for i := 1; i < names-1; i++ {
				s.manifest.Files[fmt.Sprintf("f%04d", i)] = s.manifest.Files["f0000"]
			}
			snapshot := size(manifestName)
			check := func(op string, wantSyncs, wantBytes int64, run func() error) {
				t.Helper()
				syncs, logged := durable.Syncs(), size(logName)
				if err := run(); err != nil {
					t.Fatalf("%s: %v", op, err)
				}
				syncs, logged = durable.Syncs()-syncs, size(logName)-logged
				if syncs != wantSyncs || logged != wantBytes || size(manifestName) != snapshot {
					t.Fatalf("%s at %d names: %d fsyncs, %d log bytes, snapshot %d -> %d bytes; want %d fsyncs, %d bytes, snapshot untouched",
						op, names, syncs, logged, snapshot, size(manifestName), wantSyncs, wantBytes)
				}
			}
			check("Put", 1, putBytes, func() error { return s.Put("f9999", data) })
			bio := &countingIO{}
			s.SetBlockIO(bio)
			check("TranscodeExtent", 1, moveBytes, func() error {
				_, err := s.TranscodeExtent("f9999", 0, "pentagon")
				return err
			})
			if w, rm := int64(blocksOn(t, s, "pentagon", 2)), int64(blocksOn(t, s, "rs-9-6", 2)); bio.writes.Load() != w ||
				bio.removes.Load() != rm || bio.renames.Load() != 0 {
				t.Fatalf("move issued %d block writes, %d removes, %d renames; want %d, %d, 0",
					bio.writes.Load(), bio.removes.Load(), bio.renames.Load(), w, rm)
			}
			s.SetBlockIO(nil)
			check("Delete", 1, delBytes, func() error {
				_, err := s.Delete("f9999")
				return err
			})
			if names != 800 {
				return
			}
			// Amortised: churn one name until the log has been folded
			// once. Every op costs its record and one fsync; the op that
			// crosses the threshold also writes one snapshot (two fsyncs)
			// of the whole 800-name table and empties the log.
			checkpoints := func() int64 { return s.Obs().Snapshot().Counters[counterNames[cCheckpoints]] }
			syncs, before := durable.Syncs(), checkpoints()
			var ops, last int64
			for ; checkpoints() == before; ops++ {
				last = size(logName)
				if ops%2 == 0 {
					err = s.Put("f9999", data[:1])
				} else {
					_, err = s.Delete("f9999")
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if last > minCheckpointBytes || last+putBytes <= minCheckpointBytes {
				t.Fatalf("checkpoint by the record after %d log bytes, want by the first one past %d", last, minCheckpointBytes)
			}
			if got := durable.Syncs() - syncs; got != ops+2 {
				t.Fatalf("%d ops and one checkpoint issued %d fsyncs, want %d", ops, got, ops+2)
			}
			if size(logName) != 0 || size(manifestName) < 800*100 {
				t.Fatalf("after the checkpoint: log %d bytes, snapshot %d; want an empty log and the 800-name table",
					size(logName), size(manifestName))
			}
			want := 799 + int(ops%2)
			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(s2.Files()); got != want {
				t.Fatalf("reopened after the checkpoint: %d names, want %d", got, want)
			}
		})
	}
}

// TestShortStripeRepairRoundTrip kills and repairs every node (and
// every adjacent pair the code tolerates) of stores holding shortened
// tail stripes: each repair leaves the node directories byte-identical
// to before the kill — no known-zero symbol is re-materialised — and
// reports exactly the block files it put back.
func TestShortStripeRepairRoundTrip(t *testing.T) {
	for _, codeName := range core.Names() {
		t.Run(codeName, func(t *testing.T) {
			s := newStore(t, codeName)
			k, n := s.code.DataSymbols(), s.code.Nodes()
			for i, size := range []int{1, 2 * blockSize, (k + 1) * blockSize} {
				if err := s.Put(fmt.Sprintf("f%d", i), randomFile(t, size, int64(500+i))); err != nil {
					t.Fatal(err)
				}
			}
			before := blockFiles(t, s)
			fsckBefore, err := s.Fsck()
			if err != nil || !fsckBefore.Healthy() || fsckBefore.Blocks != len(before) {
				t.Fatalf("fsck = %+v, %v with %d block files", fsckBefore, err, len(before))
			}
			patterns := [][]int{}
			for v := 0; v < n; v++ {
				patterns = append(patterns, []int{v})
				if s.code.FaultTolerance() >= 2 {
					patterns = append(patterns, []int{v, (v + 1) % n})
				}
			}
			for _, failed := range patterns {
				lost := 0
				for _, v := range failed {
					gone, _ := filepath.Glob(filepath.Join(s.nodeDir(v), "*"))
					lost += len(gone)
					if err := s.KillNode(v); err != nil {
						t.Fatal(err)
					}
				}
				rep, err := s.Repair(failed)
				if err != nil {
					t.Fatalf("repair %v: %v", failed, err)
				}
				if rep.BlocksRestored != lost || (rep.Transfers == 0) != (lost == 0) {
					t.Fatalf("repair %v reports %+v, %d block files were lost", failed, rep, lost)
				}
				if after := blockFiles(t, s); !reflect.DeepEqual(after, before) {
					t.Fatalf("repair %v: node directories differ from before the kill (%d vs %d files)", failed, len(after), len(before))
				}
			}
			if fsck, err := s.Fsck(); err != nil || fsck != fsckBefore {
				t.Fatalf("fsck after repairs = %+v, %v; before %+v", fsck, err, fsckBefore)
			}
		})
	}
	// A node that held only known-zero symbols has nothing to repair,
	// and repairing it reads nothing.
	s := newStore(t, "rs-9-6")
	if err := s.Put("f", randomFile(t, 2*blockSize, 510)); err != nil {
		t.Fatal(err)
	}
	bio := &countingIO{}
	s.SetBlockIO(bio)
	if rep, err := s.Repair([]int{3}); err != nil || rep != (RepairReport{}) || bio.reads.Load()+bio.misses.Load() != 0 {
		t.Fatalf("repair of a zero-symbol node: %+v, %v, %d opens", rep, err, bio.reads.Load()+bio.misses.Load())
	}
}

// TestShortStripeKillPoints runs the move kill-point table on extents
// whose tail stripes are shortened under both codes — 2 blocks and k+1
// blocks — out to pentagon and back to rs-9-6: recovery lands on one
// code, byte-identical, storing exactly that layout's blocks.
func TestShortStripeKillPoints(t *testing.T) {
	for _, blocks := range []int{2, 7} {
		for _, tc := range moveKillPoints {
			t.Run(fmt.Sprintf("%dblocks/%s", blocks, tc.point), func(t *testing.T) {
				dir := t.TempDir()
				s, err := Create(dir, "rs-9-6", blockSize)
				if err != nil {
					t.Fatal(err)
				}
				want := randomFile(t, blocks*blockSize-5, 61)
				if err := s.Put("f", want); err != nil {
					t.Fatal(err)
				}
				// Out: rs-9-6 -> pentagon, dying at the point.
				killAt(s, tc.point)
				if _, err := s.Transcode("f", "pentagon"); !errors.Is(err, errKilled) {
					t.Fatalf("Transcode error = %v, want simulated crash", err)
				}
				s = assertRecovered(t, dir, want, movedCode(tc.moved, "rs-9-6", "pentagon"))
				if _, err := s.Transcode("f", "pentagon"); err != nil {
					t.Fatal(err)
				}
				// Back: pentagon -> rs-9-6, dying at the same point.
				killAt(s, tc.point)
				if _, err := s.Transcode("f", "rs-9-6"); !errors.Is(err, errKilled) {
					t.Fatalf("Transcode back error = %v, want simulated crash", err)
				}
				assertRecovered(t, dir, want, movedCode(tc.moved, "pentagon", "rs-9-6"))
			})
		}
	}
}

// assertExactLayout fails unless the node directories hold exactly the
// block files the manifest's layout expects: none missing, no orphans.
func assertExactLayout(t *testing.T, s *Store) {
	t.Helper()
	fsck, err := s.Fsck()
	if err != nil || !fsck.Healthy() || fsck.Orphans != 0 || fsck.Blocks != len(blockFiles(t, s)) {
		t.Fatalf("fsck = %+v, %v with %d block files on disk", fsck, err, len(blockFiles(t, s)))
	}
}

// TestPaddedStoreCompat reads a store the way the previous format
// wrote it — every tail stripe's padding symbols materialised as zero
// blocks on all their placement nodes. No live block is rewritten: the
// padding is never opened — Open's sweep removes it as the stale block
// files it is, and nothing else — and reads and scrubs are exact on a
// healthy store.
func TestPaddedStoreCompat(t *testing.T) {
	for _, codeName := range []string{"rs-9-6", "pentagon"} {
		t.Run(codeName, func(t *testing.T) {
			dir := t.TempDir()
			s, err := CreateExt(dir, codeName, blockSize, 20)
			if err != nil {
				t.Fatal(err)
			}
			k, p := s.code.DataSymbols(), s.code.Placement()
			files := map[string][]byte{
				"small": randomFile(t, 2*blockSize, 520),
				"tail":  randomFile(t, (k+1)*blockSize+9, 521),
				"multi": randomFile(t, 45*blockSize, 522), // three extents, two with short tails
			}
			padding := 0
			for name, data := range files {
				if err := s.Put(name, data); err != nil {
					t.Fatal(err)
				}
				fi, _ := s.Info(name)
				for ext, e := range fi.Extents {
					for sym := 0; sym < k; sym++ {
						if !e.zeroSymbol(k, e.Stripes-1, sym) {
							continue
						}
						for _, v := range p.SymbolNodes[sym] {
							if err := s.writeBlock(s.extentBlockPath(v, name, fi, ext, e.Stripes-1, sym), s.zeroBlock); err != nil {
								t.Fatal(err)
							}
							padding++
						}
					}
				}
			}
			if padding == 0 {
				t.Fatal("no padding materialised; the test files fill their stripes")
			}
			live := len(blockFiles(t, s)) - padding
			if s, err = Open(dir); err != nil {
				t.Fatal(err)
			}
			if rec := s.LastRecovery(); rec.Orphans != padding || len(blockFiles(t, s)) != live {
				t.Fatalf("recovery = %+v with %d block files left; want the %d padding files swept and the %d live ones kept",
					rec, len(blockFiles(t, s)), padding, live)
			}
			bio := &countingIO{}
			s.SetBlockIO(bio)
			for name, data := range files {
				got, err := s.Get(name)
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("Get %s: err %v, bytes equal %v", name, err, bytes.Equal(got, data))
				}
				tail := make([]byte, blockSize+3)
				off := len(data) - len(tail)
				if _, err := s.ReadAt(tail, name, int64(off)); err != nil || !bytes.Equal(tail, data[off:]) {
					t.Fatalf("ReadAt %s tail: %v", name, err)
				}
			}
			scrub, err := s.Scrub(0)
			if err != nil || !scrub.Wrapped || scrub.CorruptFound+scrub.MissingFound != 0 {
				t.Fatalf("scrub = %+v, %v", scrub, err)
			}
			fsck, err := s.Fsck()
			if err != nil || !fsck.Healthy() || fsck.Orphans != 0 || fsck.Blocks != scrub.BlocksScanned {
				t.Fatalf("fsck = %+v, %v; want healthy with no orphans", fsck, err)
			}
			if fsck.Blocks != live || bio.misses.Load() != 0 {
				t.Fatalf("%d expected != %d on disk, or %d missed opens", fsck.Blocks, live, bio.misses.Load())
			}
		})
	}
}
