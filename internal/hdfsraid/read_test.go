package hdfsraid

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/block"
	"repro/internal/core"
)

// TestReadBlockDegradedAllCodes exercises the degraded-read path the
// transcoder depends on for every registered code: kill every replica
// holder of each data symbol in turn and read it back through partial
// parities (or a k-block RS decode).
func TestReadBlockDegradedAllCodes(t *testing.T) {
	for _, codeName := range core.Names() {
		t.Run(codeName, func(t *testing.T) {
			s := newStore(t, codeName)
			k := s.Code().DataSymbols()
			data := randomFile(t, 2*blockSize*k, 40)
			if err := s.Put("f", data); err != nil {
				t.Fatal(err)
			}
			p := s.Code().Placement()
			tol := s.Code().FaultTolerance()
			for sym := 0; sym < k; sym++ {
				holders := p.SymbolNodes[sym]
				if len(holders) > tol {
					// Killing every holder exceeds the code's node
					// tolerance (e.g. 3-rep); skip this symbol.
					continue
				}
				for _, v := range holders {
					if err := s.KillNode(v); err != nil {
						t.Fatal(err)
					}
				}
				for stripe := 0; stripe < 2; stripe++ {
					got, cost, err := s.ReadBlock("f", stripe, sym)
					if err != nil {
						t.Fatalf("symbol %d stripe %d: %v", sym, stripe, err)
					}
					if cost <= 0 {
						t.Fatalf("symbol %d: degraded read reported %d transfers", sym, cost)
					}
					off := (stripe*k + sym) * blockSize
					if !bytes.Equal(got, data[off:off+blockSize]) {
						t.Fatalf("symbol %d stripe %d: wrong bytes", sym, stripe)
					}
				}
				// Restore the nodes for the next symbol's failure.
				if _, err := s.Repair(holders); err != nil {
					t.Fatalf("repairing %v: %v", holders, err)
				}
			}
		})
	}
}

// readOnlyNode is a BlockIO that refuses writes and renames under one
// node's directory: it pins a killed node down so self-healing reads
// cannot resurrect its blocks, keeping a degraded-read test degraded.
type readOnlyNode struct {
	BlockIO
	dir string
}

func (r readOnlyNode) WriteFile(path string, data []byte, perm fs.FileMode) error {
	if strings.Contains(path, r.dir) {
		return fmt.Errorf("readOnlyNode: %s is write-blocked", path)
	}
	return r.BlockIO.WriteFile(path, data, perm)
}

func (r readOnlyNode) Rename(oldPath, newPath string) error {
	if strings.Contains(newPath, r.dir) {
		return fmt.Errorf("readOnlyNode: %s is write-blocked", newPath)
	}
	return r.BlockIO.Rename(oldPath, newPath)
}

// TestReadBlockConcurrentDegraded runs many goroutines through the
// degraded read path of one failure pattern while others read healthy
// symbols and whole files — the shape that shares the per-pattern
// decode-plan cache and the frame/payload pools across readers. Run
// under -race in CI, it guards the cache and pool concurrency. The
// dead node is write-blocked through the BlockIO seam so self-healing
// reads (which would otherwise restore it after the first degraded
// read) keep every symbol-0 read on the degraded path.
func TestReadBlockConcurrentDegraded(t *testing.T) {
	s := newStore(t, "rs-9-6")
	k := s.Code().DataSymbols()
	data := randomFile(t, 3*blockSize*k, 43)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	// Kill symbol 0's only holder: reads of symbol 0 decode through
	// partial parities, everything else stays healthy.
	if err := s.KillNode(0); err != nil {
		t.Fatal(err)
	}
	s.SetBlockIO(readOnlyNode{BlockIO: osBlockIO{}, dir: "node-00"})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]byte, blockSize)
			for iter := 0; iter < 20; iter++ {
				stripe := (w + iter) % 3
				sym := 0
				if w%2 == 1 {
					sym = 1 + (w+iter)%(k-1) // healthy symbols
				}
				cost, err := s.ReadBlockInto(dst, "f", stripe, sym)
				if err != nil {
					errs <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
				if sym == 0 && cost == 0 {
					errs <- fmt.Errorf("degraded read of symbol 0 cost 0")
					return
				}
				off := (stripe*k + sym) * blockSize
				if !bytes.Equal(dst, data[off:off+blockSize]) {
					errs <- fmt.Errorf("worker %d: wrong bytes for stripe %d symbol %d", w, stripe, sym)
					return
				}
				if iter%5 == 0 {
					got, err := s.Get("f")
					if err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(got, data) {
						errs <- fmt.Errorf("worker %d: Get returned wrong file", w)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestReadBlockSteadyStateAllocations pins down the satellite fix for
// the per-block payload allocations: after warm-up, a healthy
// ReadBlockInto must not allocate block-size payloads (the only
// allocations left are the os.Open file handle and path string, far
// below one block).
func TestReadBlockSteadyStateAllocations(t *testing.T) {
	s := newStore(t, "pentagon")
	k := s.Code().DataSymbols()
	data := randomFile(t, blockSize*k, 44)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, blockSize)
	readOne := func() {
		if _, err := s.ReadBlockInto(dst, "f", 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	readOne() // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const iters = 50
	for i := 0; i < iters; i++ {
		readOne()
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / iters
	// The un-pooled path allocated 2-3 block frames per read (>8 KiB);
	// the bound is one block so the test also survives the race
	// detector's allocation overhead.
	if perOp > blockSize {
		t.Fatalf("steady-state ReadBlockInto allocates %d B/op; block payloads are not pooled", perOp)
	}
}

// TestReadBlockHealthyAllCodes reads every data block of every code
// with no failures: zero-transfer replica reads, correct bytes.
func TestReadBlockHealthyAllCodes(t *testing.T) {
	for _, codeName := range core.Names() {
		t.Run(codeName, func(t *testing.T) {
			s := newStore(t, codeName)
			k := s.Code().DataSymbols()
			data := randomFile(t, blockSize*k, 41)
			if err := s.Put("f", data); err != nil {
				t.Fatal(err)
			}
			for sym := 0; sym < k; sym++ {
				got, cost, err := s.ReadBlock("f", 0, sym)
				if err != nil {
					t.Fatal(err)
				}
				if cost != 0 {
					t.Fatalf("healthy read of symbol %d cost %d", sym, cost)
				}
				if !bytes.Equal(got, data[sym*blockSize:(sym+1)*blockSize]) {
					t.Fatalf("symbol %d wrong", sym)
				}
			}
		})
	}
}

// TestReadBlockSingleFailureAllCodes kills one replica holder per
// symbol: double-replication codes still read the surviving replica at
// zero transfer cost, single-copy codes pay a degraded read.
func TestReadBlockSingleFailureAllCodes(t *testing.T) {
	for _, codeName := range core.Names() {
		t.Run(codeName, func(t *testing.T) {
			s := newStore(t, codeName)
			k := s.Code().DataSymbols()
			data := randomFile(t, blockSize*k, 42)
			if err := s.Put("f", data); err != nil {
				t.Fatal(err)
			}
			holders := s.Code().Placement().SymbolNodes[0]
			if err := s.KillNode(holders[0]); err != nil {
				t.Fatal(err)
			}
			got, cost, err := s.ReadBlock("f", 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(holders) > 1 && cost != 0 {
				t.Fatalf("replicated code paid %d transfers with one holder down", cost)
			}
			if len(holders) == 1 && cost == 0 {
				t.Fatal("single-copy code read a dead block for free")
			}
			if !bytes.Equal(got, data[:blockSize]) {
				t.Fatal("wrong bytes")
			}
		})
	}
}

// countingIO is the equivalence and exact-count tests' BlockIO: it
// counts block files opened, the bytes read from them, opens that
// missed and frames written, and once frozen refuses every write,
// rename and removal, so self-healing cannot repair the damage under
// test between one entry point's read and the next. No file under a
// node directory named down can be opened: the node is unreachable.
type countingIO struct {
	reads, bytes, misses, writes, renames, removes atomic.Int64
	frozen                                         atomic.Bool
	down                                           string
}

var errFrozen = errors.New("countingIO: frozen")

// countedFile is an open block file whose ReadAt calls countingIO
// tallies: the store reads a block file through nothing else.
type countedFile struct {
	*os.File
	n *atomic.Int64
}

func (f countedFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.n.Add(int64(n))
	return n, err
}

func (c *countingIO) Open(path string) (io.ReadCloser, error) {
	r, err := os.Open(path)
	if err == nil && c.down != "" && strings.Contains(path, c.down) {
		r.Close()
		err = errors.New("countingIO: node unreachable")
	}
	if err != nil {
		c.misses.Add(1)
		return nil, err
	}
	c.reads.Add(1)
	return countedFile{r, &c.bytes}, nil
}
func (c *countingIO) WriteFile(path string, data []byte, perm fs.FileMode) error {
	if c.frozen.Load() {
		return errFrozen
	}
	c.writes.Add(1)
	return os.WriteFile(path, data, perm)
}
func (c *countingIO) Rename(oldPath, newPath string) error {
	if c.frozen.Load() {
		return errFrozen
	}
	c.renames.Add(1)
	return os.Rename(oldPath, newPath)
}
func (c *countingIO) Remove(path string) error {
	if c.frozen.Load() {
		return errFrozen
	}
	c.removes.Add(1)
	return os.Remove(path)
}

// TestOneReaderEquivalence pins the contract of the single stripe
// reader: for every registered code, on whole-file and extent stores,
// intact and damaged, over files that fill their stripes and files
// whose tail stripe is shortened (1 byte, 1 block, k-1 blocks, k
// blocks + 1 byte), Get, ReadAt over random unaligned ranges and
// ReadBlockInto over every block deliver the same bytes — one ladder,
// so whatever damage one entry point survives, all survive — and the
// ladder's steps cost what the paper says: one block read per live
// data block of an intact stripe, one for a degraded block of a
// double-replication code, and for RS the k-block plan less its
// known-zero terms. The write side is pinned with it: a PUT writes the
// replicas of live data symbols and parities only, and nothing ever
// opens the path of a known-zero symbol.
//
// It runs twice: on the suite's 4 KiB blocks — one cell each — for
// every code, and on blocks of two and a half cells for the paper's
// pair of codes, where every window the reads above ask for is cut out
// of a multi-cell frame; there, damage to a single cell outside and
// inside the windows read is two patterns more (testCellDamage).
func TestOneReaderEquivalence(t *testing.T) {
	oneReaderEquivalence(t, blockSize, core.Names())
	oneReaderEquivalence(t, cellsBlock, []string{"pentagon", "rs-9-6"})
	for _, codeName := range []string{"pentagon", "rs-9-6"} {
		t.Run(codeName+"/cell-outside-windows", func(t *testing.T) { testCellDamage(t, codeName, false) })
		t.Run(codeName+"/cell-inside-window", func(t *testing.T) { testCellDamage(t, codeName, true) })
	}
}

func oneReaderEquivalence(t *testing.T, blockSize int, codes []string) {
	// zero mirrors Extent.zeroSymbol for this test's files, which are
	// either one extent or all full stripes: blocks is the file's
	// data-block count, stripe file-global.
	zero := func(k, blocks, stripe, sym int) bool { return sym < k && stripe*k+sym >= blocks }
	// damage returns false when the code cannot lose data symbol 0
	// within its tolerance (plain replication).
	damages := []struct {
		name  string
		apply func(t *testing.T, s *Store, blocks int) bool
	}{
		{"intact", func(*testing.T, *Store, int) bool { return true }},
		{"node-down", func(t *testing.T, s *Store, _ int) bool {
			if err := s.KillNode(s.code.Placement().SymbolNodes[0][0]); err != nil {
				t.Fatal(err)
			}
			return true
		}},
		// A latent-error pattern: every replica of data symbol 0 of
		// stripe 0 corrupt, plus one stored block the read plan around
		// them sources from a further node. For pentagon that exhausts
		// the plan's node tolerance (three nodes bad, two tolerated)
		// while the stripe has lost a single symbol — which only the
		// full-stripe decode serves.
		{"latent", func(t *testing.T, s *Store, blocks int) bool {
			holders := s.code.Placement().SymbolNodes[0]
			if len(holders) > s.code.FaultTolerance() {
				return false
			}
			plan, err := s.code.PlanRead(0, holders, core.OffCluster)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range holders {
				if err := s.CorruptBlock(v, "f", 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			for _, tr := range plan.Transfers {
				for _, term := range tr.Terms {
					if !zero(s.code.DataSymbols(), blocks, 0, term.Symbol) {
						if err := s.CorruptBlock(tr.From, "f", 0, term.Symbol); err != nil {
							t.Fatal(err)
						}
						return true
					}
				}
			}
			t.Fatal("read plan has no stored source block")
			return false
		}},
	}
	for _, codeName := range codes {
		c, err := core.New(codeName)
		if err != nil {
			t.Fatal(err)
		}
		k, p := c.DataSymbols(), c.Placement()
		// Three full stripes (two extents on the extent store) whose
		// last block is cut short, then the shortened-tail shapes.
		lengths := []int{3*k*blockSize - 100, 1, blockSize, k*blockSize + 1}
		if k > 2 {
			lengths = append(lengths, (k-1)*blockSize)
		}
		if blockSize > block.CellSize {
			lengths = []int{3*k*blockSize - 100, k*blockSize + 1}
		}
		for _, length := range lengths {
			for _, extents := range []bool{false, true} {
				for _, dmg := range damages {
					t.Run(fmt.Sprintf("%s/len=%d/extents=%v/%s", codeName, length, extents, dmg.name), func(t *testing.T) {
						extentBlocks := 0
						if extents {
							extentBlocks = 2 * k
						}
						s, err := CreateExt(t.TempDir(), codeName, blockSize, extentBlocks)
						if err != nil {
							t.Fatal(err)
						}
						bio := &countingIO{}
						s.SetBlockIO(bio)
						data := randomFile(t, length, 90)
						if err := s.Put("f", data); err != nil {
							t.Fatal(err)
						}
						blocks := (length + blockSize - 1) / blockSize
						stripes := (blocks + k - 1) / k
						// A PUT writes every replica of every live data
						// symbol and parity, none of a known-zero symbol.
						wantWrites := 0
						for stripe := 0; stripe < stripes; stripe++ {
							for sym, nodes := range p.SymbolNodes {
								if !zero(k, blocks, stripe, sym) {
									wantWrites += len(nodes)
								}
							}
						}
						if writes := bio.writes.Load(); writes != int64(wantWrites) {
							t.Fatalf("Put wrote %d block files, want %d", writes, wantWrites)
						}
						if !dmg.apply(t, s, blocks) {
							t.Skip("code cannot lose a data symbol within its tolerance")
						}
						bio.frozen.Store(true)

						wantGet, pinned := int64(blocks), true
						if dmg.name != "intact" {
							wantGet, pinned = degradedGetReads(s, length)
						}
						got, err := s.Get("f")
						if err != nil || !bytes.Equal(got, data) {
							t.Fatalf("Get: err %v, bytes equal %v", err, bytes.Equal(got, data))
						}
						if reads := bio.reads.Load(); pinned && reads != wantGet {
							t.Fatalf("Get read %d blocks, want %d: each live data block once, plus what its stripe's one decode needs", reads, wantGet)
						}

						rng := rand.New(rand.NewSource(91))
						for i := 0; i < 40 && len(data) > 1; i++ {
							off := 1 // the first range starts inside the damaged block
							if i > 0 {
								off = rng.Intn(len(data))
							}
							p := make([]byte, 1+rng.Intn(min(len(data)-off, 4*blockSize)))
							if _, err := s.ReadAt(p, "f", int64(off)); err != nil || !bytes.Equal(p, data[off:off+len(p)]) {
								t.Fatalf("ReadAt(off=%d, n=%d): err %v, bytes equal %v", off, len(p), err, bytes.Equal(p, data[off:off+len(p)]))
							}
						}

						dst := make([]byte, blockSize)
						want := make([]byte, blockSize)
						dead := p.SymbolNodes[0][0]
						// Extents hold whole stripes, so block g is (g/k,
						// g%k); the tail stripe's positions past the last
						// block read back as zeros, for free.
						for g := 0; g < stripes*k; g++ {
							before := bio.reads.Load()
							cost, err := s.ReadBlockInto(dst, "f", g/k, g%k)
							if err != nil {
								t.Fatalf("ReadBlockInto(block %d): %v", g, err)
							}
							clear(want)
							if g < blocks {
								copy(want, data[g*blockSize:])
							}
							if !bytes.Equal(dst, want) {
								t.Fatalf("ReadBlockInto(block %d): wrong bytes", g)
							}
							reads := bio.reads.Load() - before
							if g >= blocks && (reads != 0 || cost != 0) {
								t.Fatalf("known-zero block %d: %d block reads at cost %d, want none", g, reads, cost)
							}
							if dmg.name != "node-down" || g >= blocks {
								continue
							}
							// One dead node: a block with a surviving replica
							// costs one read and no transfer (every block of a
							// double-replication code); a block whose only
							// copy was on the node costs the stored blocks of
							// its read plan — k on a full RS stripe, fewer on
							// a shortened one.
							wantReads, wantDegraded := int64(1), false
							if holders := p.SymbolNodes[g%k]; len(holders) == 1 && holders[0] == dead {
								plan, err := c.PlanRead(g%k, []int{dead}, core.OffCluster)
								if err != nil {
									t.Fatal(err)
								}
								wantReads, wantDegraded = 0, true
								for _, tr := range plan.Transfers {
									for _, term := range tr.Terms {
										if !zero(k, blocks, g/k, term.Symbol) {
											wantReads++
										}
									}
								}
							}
							if reads != wantReads || (cost > 0) != wantDegraded {
								t.Fatalf("block %d with a node down: %d block reads at cost %d, want %d reads, degraded=%v",
									g, reads, cost, wantReads, wantDegraded)
							}
						}
						// The same entry points with the read cache on, each
						// case read three times — a miss, the miss that fills,
						// a hit — plus ReadTo over the whole file and a range:
						// whatever the ladder delivered, memory delivers too.
						s.SetReadCache(NewReadCache(max(8<<20, 8*int64(length)))) // an extent may take ⅛ of it
						for round := 0; round < 3; round++ {
							before := bio.reads.Load()
							if got, err := s.Get("f"); err != nil || !bytes.Equal(got, data) {
								t.Fatalf("cached Get, round %d: err %v, bytes equal %v", round, err, bytes.Equal(got, data))
							}
							off := rng.Intn(len(data))
							p := make([]byte, 1+rng.Intn(len(data)-off))
							if _, err := s.ReadAt(p, "f", int64(off)); err != nil || !bytes.Equal(p, data[off:off+len(p)]) {
								t.Fatalf("cached ReadAt(off=%d, n=%d), round %d: err %v", off, len(p), round, err)
							}
							for _, r := range [][2]int64{{0, -1}, {int64(off), int64(len(p))}, {-int64(len(p)), -1}} {
								var buf bytes.Buffer
								lo, hi := clipRange(int64(len(data)), r[0], r[1])
								if _, err := s.ReadTo(&buf, "f", r[0], r[1], nil); err != nil || !bytes.Equal(buf.Bytes(), data[lo:hi]) {
									t.Fatalf("ReadTo(off=%d, n=%d), round %d: err %v", r[0], r[1], round, err)
								}
							}
							if reads := bio.reads.Load() - before; round == 2 && reads != 0 {
								t.Fatalf("round 3 with every extent cached read %d blocks", reads)
							}
						}
						s.SetReadCache(nil)
						if dmg.name != "intact" {
							return
						}
						// Nothing on an intact store — reads above, a full
						// scrub, fsck — opened a path that does not exist,
						// and what exists is exactly what the PUT wrote.
						if _, err := s.Scrub(0); err != nil {
							t.Fatal(err)
						}
						fsck, err := s.Fsck()
						if err != nil || !fsck.Healthy() || fsck.Blocks != wantWrites || fsck.Orphans != 0 {
							t.Fatalf("fsck = %+v, %v; want %d healthy blocks, no orphans", fsck, err, wantWrites)
						}
						if misses := bio.misses.Load(); misses != 0 {
							t.Fatalf("%d block opens missed on an intact store", misses)
						}
					})
				}
			}
		}
	}
}

// degradedGetReads is how many block files a Get of the file "f", of
// length bytes in whole stripes of the store's code, opens on a store
// whose only damage is missing and corrupt replicas, worked out from the
// replicas on disk. Per stripe that is the first readable replica of
// each live data block, and every corrupt one tried before it. A stripe
// that lost a block then decodes once: one more read of each stored
// symbol no delivered block covers — the parities, and a block the
// file's end cuts short. A corrupt replica met on the way is opened once
// more by its heal's re-verify. ok is false where this is not the count
// to pin: a stripe of one live block that lost it takes the read plan
// (ReadBlockInto's counts pin that), and a missing replica whose bytes
// are not whole in hand heals through a reconstruction.
func degradedGetReads(s *Store, length int) (reads int64, ok bool) {
	fi, _ := s.Info("f")
	k, bs := s.code.DataSymbols(), s.blockSize
	blocks, buf := (length+bs-1)/bs, make([]byte, bs)
	for stripe := 0; stripe*k < blocks; stripe++ {
		ext, local, _ := locateStripe(fi, stripe)
		live := min(k, blocks-stripe*k)
		// end is where the Get's window of live data symbol sym ends.
		end := func(sym int) int { return min(bs, length-(stripe*k+sym)*bs) }
		type replica struct {
			sym     int
			missing bool
		}
		var bad []replica
		try := func(sym int) bool {
			for _, v := range s.code.Placement().SymbolNodes[sym] {
				_, err := readBlockFile(osBlockIO{}, s.payloadPool, s.extentBlockPath(v, "f", fi, ext, local, sym), buf, 0)
				if err == nil {
					reads++
					return true
				}
				missing := errors.Is(err, fs.ErrNotExist)
				if !missing {
					reads++
				}
				bad = append(bad, replica{sym, missing})
			}
			return false
		}
		var lost []int
		hull := 0 // where the decoded windows end
		for sym := 0; sym < live; sym++ {
			if !try(sym) {
				lost, hull = append(lost, sym), max(hull, end(sym))
			}
		}
		if len(lost) > 0 && live == 1 {
			return 0, false
		}
		for sym := 0; len(lost) > 0 && sym < s.code.Symbols(); sym++ {
			if (sym < live && end(sym) < hull && !slices.Contains(lost, sym)) || sym >= k {
				try(sym)
			}
		}
		for _, b := range bad {
			switch {
			case !b.missing:
				reads++
			case b.sym >= k || end(b.sym) < bs:
				return 0, false
			}
		}
	}
	return reads, true
}

// FuzzClipRange: whatever range is asked of a file of whatever length,
// clipRange answers 0 ≤ lo ≤ hi ≤ length, and exactly the asked bytes
// when the file has them all.
func FuzzClipRange(f *testing.F) {
	f.Add(int64(100), int64(0), int64(-1))
	f.Add(int64(100), int64(-30), int64(-1))
	f.Add(int64(0), int64(0), int64(0))
	f.Add(int64(100), int64(0), int64(math.MinInt64)) // bytes=0-9223372036854775807 before parseRange guarded it
	f.Add(int64(math.MaxInt64), int64(math.MaxInt64), int64(math.MaxInt64))
	f.Add(int64(math.MaxInt64), int64(math.MinInt64), int64(1))
	f.Fuzz(func(t *testing.T, length, off, n int64) {
		if length < 0 {
			return
		}
		lo, hi := clipRange(length, off, n)
		if lo < 0 || lo > hi || hi > length {
			t.Fatalf("clipRange(%d, %d, %d) = [%d, %d)", length, off, n, lo, hi)
		}
		if off >= 0 && n >= 0 && n <= length && off <= length-n && (lo != off || hi != off+n) {
			t.Fatalf("clipRange(%d, %d, %d) = [%d, %d), want the range asked", length, off, n, lo, hi)
		}
	})
}
