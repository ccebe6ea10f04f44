package hdfsraid

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/block"
)

// cacheCount reads one of the store's counters.
func cacheCount(s *Store, c counter) int64 { return s.obs.counters[c].Value() }

// readTo is ReadTo into memory.
func readTo(s *Store, name string, off, n int64) ([]byte, error) {
	var buf bytes.Buffer
	_, err := s.ReadTo(&buf, name, off, n, nil)
	return buf.Bytes(), err
}

// parkedWriter blocks its first Write until released, after announcing
// it: a client that stops reading between two extents.
type parkedWriter struct {
	bytes.Buffer
	parked, release chan struct{}
	once            sync.Once
}

func newParkedWriter() *parkedWriter {
	return &parkedWriter{parked: make(chan struct{}), release: make(chan struct{})}
}

func (w *parkedWriter) Write(p []byte) (int, error) {
	n, _ := w.Buffer.Write(p)
	w.once.Do(func() {
		close(w.parked)
		<-w.release
	})
	return n, nil
}

// TestReadCacheNeverServesAReplacedName: an entry's cached bytes die
// with the entry. After a delete and a re-put of the same name with
// different bytes of the same length, no entry point returns a byte of
// the old content — including a ReadTo parked between two extents while
// the name was replaced, which must fail rather than splice two files.
func TestReadCacheNeverServesAReplacedName(t *testing.T) {
	s := newExtStore(t, "rs-9-6", 6)
	cache := NewReadCache(1 << 20)
	s.SetReadCache(cache)
	const length = 3*6*blockSize - 77 // three extents
	old, fresh := randomFile(t, length, 1), randomFile(t, length, 2)
	if err := s.Put("f", old); err != nil {
		t.Fatal(err)
	}
	check := func(want []byte) {
		t.Helper()
		got, err := s.Get("f")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get: err %v, bytes equal %v", err, bytes.Equal(got, want))
		}
		p := make([]byte, 2*blockSize)
		off := int64(6*blockSize - 100) // straddles extents 0 and 1
		if _, err := s.ReadAt(p, "f", off); err != nil || !bytes.Equal(p, want[off:off+int64(len(p))]) {
			t.Fatalf("ReadAt: err %v", err)
		}
		if got, err := readTo(s, "f", 0, -1); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("ReadTo: err %v, bytes equal %v", err, bytes.Equal(got, want))
		}
	}
	check(old)
	check(old)
	if cacheCount(s, cCacheHits) == 0 || cache.Bytes() != length {
		t.Fatalf("cache not warm: %d hits, %d bytes", cacheCount(s, cCacheHits), cache.Bytes())
	}

	// A reader parks after extent 0; the name is replaced under it.
	w := newParkedWriter()
	done := make(chan error, 1)
	go func() {
		_, err := s.ReadTo(w, "f", 0, -1, nil)
		done <- err
	}()
	<-w.parked
	if _, err := s.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if cache.Bytes() != 0 {
		t.Fatalf("delete left %d bytes cached", cache.Bytes())
	}
	if err := s.Put("f", fresh); err != nil {
		t.Fatal(err)
	}
	close(w.release)
	if err := <-done; err == nil || !strings.Contains(err.Error(), "replaced mid-read") {
		t.Fatalf("parked ReadTo over a replaced name: err = %v", err)
	}
	if got := w.Bytes(); !bytes.Equal(got, old[:6*blockSize]) {
		t.Fatalf("parked ReadTo delivered %d bytes, want exactly the old entry's first extent", len(got))
	}
	check(fresh)
	check(fresh)
	check(fresh)

	// Deleted outright under a parked reader: the rest fails too.
	w = newParkedWriter()
	go func() {
		_, err := s.ReadTo(w, "f", 0, -1, nil)
		done <- err
	}()
	<-w.parked
	if _, err := s.Delete("f"); err != nil {
		t.Fatal(err)
	}
	close(w.release)
	if err := <-done; err == nil {
		t.Fatal("parked ReadTo over a deleted name succeeded")
	}
	if _, err := readTo(s, "f", 0, -1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadTo of a deleted name: %v", err)
	}
}

// TestReadCacheSurvivesTranscode: a committed transcode keeps the
// entry's identity, so its cached extents stay valid — there and back,
// byte-exact, at no block read. A hit is still a read: it feeds the
// heat hook and lands in the histograms. No state of a move — killed
// or parked in front of — refuses one.
func TestReadCacheSurvivesTranscode(t *testing.T) {
	s := newExtStore(t, "rs-9-6", 6)
	s.SetReadCache(NewReadCache(1 << 20))
	bio := &countingIO{}
	s.SetBlockIO(bio)
	var extTouches int
	s.OnReadExtent = func(string, int) { extTouches++ }
	data := randomFile(t, 2*6*blockSize, 3) // two extents
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("f"); err != nil { // no Heat hook: the first miss fills
		t.Fatal(err)
	}
	hit := func(what string) {
		t.Helper()
		reads, hits, exts := bio.reads.Load(), cacheCount(s, cCacheHits), extTouches
		gets := s.obs.hists[hGetIntact].Count()
		got, err := readTo(s, "f", 0, -1)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: ReadTo err %v, bytes equal %v", what, err, bytes.Equal(got, data))
		}
		if bio.reads.Load() != reads || cacheCount(s, cCacheHits) != hits+2 {
			t.Fatalf("%s: %d block reads, %d hits; want 0 and 2", what, bio.reads.Load()-reads, cacheCount(s, cCacheHits)-hits)
		}
		if extTouches != exts+2 || s.obs.hists[hGetIntact].Count() != gets+1 {
			t.Fatalf("%s: a hit fed OnReadExtent %d, histogram %d times; want 2, 1",
				what, extTouches-exts, s.obs.hists[hGetIntact].Count()-gets)
		}
	}
	hit("warm")
	for _, to := range []string{"pentagon", "rs-9-6"} {
		if _, err := s.TranscodeExtent("f", 0, to); err != nil {
			t.Fatal(err)
		}
		hit("after move to " + to)
	}

	// No state of a move refuses a read or un-caches an extent: killed
	// with the next generation written and no record, or with the record
	// durable and nothing reclaimed, the extent is served from memory,
	// and from the blocks when the cache is gone.
	for _, point := range []string{"staged", "moved"} {
		killAt(s, point)
		if _, err := s.TranscodeExtent("f", 1, "pentagon"); !errors.Is(err, errKilled) {
			t.Fatalf("expected simulated crash, got %v", err)
		}
		s.killHook = nil
		hit("after a move killed at " + point)
		cache := s.cache
		s.SetReadCache(nil)
		if got, err := s.Get("f"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("uncached Get after a move killed at %s: %v", point, err)
		}
		tail := make([]byte, 20)
		if _, err := s.ReadAt(tail, "f", 6*blockSize-10); err != nil || !bytes.Equal(tail, data[6*blockSize-10:6*blockSize+10]) {
			t.Fatalf("uncached ReadAt after a move killed at %s: %v", point, err)
		}
		s.SetReadCache(cache)
		if _, err := s.Recover(); err != nil {
			t.Fatal(err)
		}
		hit("after recovery")
	}

	// An extent that moves while a reader is parked in front of it is
	// read where it now is when the reader gets there.
	w := newParkedWriter()
	done := make(chan error, 1)
	go func() {
		_, err := s.ReadTo(w, "f", 0, -1, nil)
		done <- err
	}()
	<-w.parked
	s.SetReadCache(nil)
	if _, err := s.TranscodeExtent("f", 1, "rs-9-6"); err != nil {
		t.Fatal(err)
	}
	close(w.release)
	if err := <-done; err != nil || !bytes.Equal(w.Bytes(), data) {
		t.Fatalf("parked ReadTo reaching an extent moved meanwhile: %d bytes, %v", w.Len(), err)
	}
}

// countReads gives s the heat hooks a tier tracker without decay
// would: an extent's heat is the number of reads that touched it.
func countReads(s *Store) {
	type extent struct {
		name string
		ext  int
	}
	var mu sync.Mutex
	reads := map[extent]float64{}
	s.OnReadExtent = func(name string, ext int) {
		mu.Lock()
		defer mu.Unlock()
		reads[extent{name, ext}]++
	}
	s.Heat = func(name string, ext int) float64 {
		mu.Lock()
		defer mu.Unlock()
		return reads[extent{name, ext}]
	}
}

// TestReadCacheBounds: the byte cap holds under a concurrent fill storm,
// an extent over an eighth of the budget is never admitted, and a
// ranged read neither fills the cache nor reads a block outside its
// range.
func TestReadCacheBounds(t *testing.T) {
	const budget = 16 * blockSize
	s := newStore(t, "rs-9-6")
	countReads(s)
	cache := NewReadCache(budget)
	s.SetReadCache(cache)
	const files = 24
	for i := 0; i < files; i++ {
		if err := s.Put(fmt.Sprintf("f%02d", i), randomFile(t, 2*blockSize-i, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := 0; i < files; i++ {
					name := fmt.Sprintf("f%02d", (i+g*5)%files)
					if _, err := s.Get(name); err != nil {
						t.Error(err)
					}
					if b := cache.Bytes(); b > budget {
						t.Errorf("cache holds %d bytes, budget %d", b, budget)
					}
				}
			}
		}()
	}
	wg.Wait()
	if cacheCount(s, cCacheEvictions) == 0 || cacheCount(s, cCacheFills) == 0 {
		t.Fatalf("storm evicted %d, filled %d; want both", cacheCount(s, cCacheEvictions), cacheCount(s, cCacheFills))
	}
	if got := s.Obs().Snapshot().Gauges[cacheBytesName]; got <= 0 || got > budget {
		t.Fatalf("%s gauge = %v, want within (0, %d]", cacheBytesName, got, budget)
	}

	// Over budget/8 by one byte: read from the blocks every time.
	big := randomFile(t, budget/8+1, 99)
	if err := s.Put("big", big); err != nil {
		t.Fatal(err)
	}
	bio := &countingIO{}
	s.SetBlockIO(bio)
	fills := cacheCount(s, cCacheFills)
	for i := 1; i <= 3; i++ {
		if got, err := s.Get("big"); err != nil || !bytes.Equal(got, big) {
			t.Fatalf("Get(big): %v", err)
		}
		if reads := bio.reads.Load(); reads != int64(3*i) {
			t.Fatalf("read %d of the oversized extent took %d block reads in all, want %d", i, reads, 3*i)
		}
	}
	// Ranged reads of a cold extent: one block each, forever, no fill.
	cold := randomFile(t, 2*blockSize, 98)
	if err := s.Put("cold", cold); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		before := bio.reads.Load()
		p := make([]byte, 100)
		if _, err := s.ReadAt(p, "cold", blockSize+5); err != nil || !bytes.Equal(p, cold[blockSize+5:][:100]) {
			t.Fatalf("ReadAt(cold): %v", err)
		}
		if got, err := readTo(s, "cold", blockSize+5, 100); err != nil || !bytes.Equal(got, p) {
			t.Fatalf("ReadTo(cold): %v", err)
		}
		if reads := bio.reads.Load() - before; reads != 2 {
			t.Fatalf("two one-block ranged reads took %d block reads", reads)
		}
	}
	if got := cacheCount(s, cCacheFills); got != fills {
		t.Fatalf("oversized and ranged reads filled the cache %d times", got-fills)
	}
	// The ranged reads made the extent one read before: the first whole
	// read fills, the next is served from memory.
	for i, wantReads := range []int64{2, 0, 0} {
		before := bio.reads.Load()
		if got, err := readTo(s, "cold", 0, -1); err != nil || !bytes.Equal(got, cold) {
			t.Fatalf("ReadTo(cold) %d: %v", i, err)
		}
		if reads := bio.reads.Load() - before; reads != wantReads {
			t.Fatalf("whole read %d of a cold extent took %d block reads, want %d", i+1, reads, wantReads)
		}
	}
}

// TestCacheAdmitsExtentsReadBefore: the cache admits a whole-extent
// miss only when the extent's heat says it was read before. One cold
// pass over more extents than the budget holds admits nothing; a second
// whole read admits; a ranged read earlier makes the first whole miss
// admit; and a store without a Heat hook admits every whole miss.
func TestCacheAdmitsExtentsReadBefore(t *testing.T) {
	const budget = 16 * blockSize
	s := newExtStore(t, "rs-9-6", 2) // 2-block extents: an eighth of the budget
	countReads(s)
	cache := NewReadCache(budget)
	s.SetReadCache(cache)
	data := randomFile(t, 24*blockSize, 11) // 12 extents, 1.5 budgets
	if err := s.Put("scan", data); err != nil {
		t.Fatal(err)
	}
	wholeRead := func(s *Store, name string, want []byte) {
		t.Helper()
		if got, err := s.Get(name); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%s): %v", name, err)
		}
	}
	wholeRead(s, "scan", data)
	if fills := cacheCount(s, cCacheFills); fills != 0 || cache.Bytes() != 0 {
		t.Fatalf("a cold pass filled %d extents, %d bytes", fills, cache.Bytes())
	}
	wholeRead(s, "scan", data)
	if fills := cacheCount(s, cCacheFills); fills != 12 || cache.Bytes() != budget {
		t.Fatalf("a second pass filled %d extents, %d bytes; want 12 and the budget", fills, cache.Bytes())
	}

	ranged := randomFile(t, 2*blockSize, 12)
	if err := s.Put("ranged", ranged); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadAt(make([]byte, 100), "ranged", 5); err != nil {
		t.Fatal(err)
	}
	fills := cacheCount(s, cCacheFills)
	wholeRead(s, "ranged", ranged)
	if got := cacheCount(s, cCacheFills) - fills; got != 1 {
		t.Fatalf("the first whole read after a ranged one filled %d extents, want 1", got)
	}

	bare := newStore(t, "rs-9-6")
	bare.SetReadCache(NewReadCache(budget))
	if err := bare.Put("f", ranged); err != nil {
		t.Fatal(err)
	}
	wholeRead(bare, "f", ranged)
	if got := cacheCount(bare, cCacheFills); got != 1 {
		t.Fatalf("a store without heat filled %d extents on the first whole read, want 1", got)
	}
}

// TestReadBlockFileVerdicts pins the payload-direct block read's
// verdicts about a frame, of one cell and of several: exact length and
// the CRC of every cell the window touches, or ErrCorrupt, whichever
// way it is wrong; damage to a cell outside the window is no verdict
// of that read; neither a missing file nor a file opened as no
// io.ReaderAt is a verdict about bytes, and the latter is opened once,
// not retried, and quarantines nothing.
func TestReadBlockFileVerdicts(t *testing.T) {
	for _, bs := range []int{blockSize, cellsBlock} {
		s, err := Create(t.TempDir(), "pentagon", bs)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put("f", randomFile(t, bs, 7)); err != nil {
			t.Fatal(err)
		}
		fi, _ := s.Info("f")
		path := s.extentBlockPath(s.code.Placement().SymbolNodes[0][0], "f", fi, 0, 0, 0)
		frame, err := os.ReadFile(path)
		if err != nil || len(frame) != block.FrameSize(bs) {
			t.Fatalf("frame: %d bytes, %v", len(frame), err)
		}
		flip := func(at int) []byte {
			bad := bytes.Clone(frame)
			bad[at] ^= 1
			return bad
		}
		type verdict struct {
			name    string
			content []byte
			off, n  int    // the window read
			want    string // substring of the ErrCorrupt verdict; "" = healthy
		}
		cases := []verdict{
			{"exact", frame, 0, bs, ""},
			{"exact, a window", frame, bs / 3, bs / 2, ""},
			{"empty", nil, 0, bs, "shorter"},
			{"payload cut", frame[:bs-1], 0, bs, "shorter"},
			{"table cut", frame[:len(frame)-1], 0, bs, "shorter"},
			{"one byte long", append(bytes.Clone(frame), 0), 0, bs, "longer"},
			{"payload bit flipped", flip(bs / 2), 0, bs, "checksum"},
			{"table bit flipped", flip(len(frame) - 1), 0, bs, "checksum"},
		}
		if bs > block.CellSize {
			c := block.CellSize
			cases = append(cases,
				verdict{"a table entry short", frame[:len(frame)-4], 0, 10, "shorter"},
				verdict{"one byte long, a window", append(bytes.Clone(frame), 0), 0, 10, "longer"},
				verdict{"payload torn, table gone", frame[:bs-c], 0, 10, "shorter"},
				verdict{"bad cell cut by the window", flip(c + 5), c - 10, 20, "checksum"},
				verdict{"bad cell whole in the window", flip(c + 5), 0, bs, "checksum"},
				verdict{"bad cell before the window", flip(c - 1), c, 100, ""},
				verdict{"bad cell after the window", flip(2 * c), c - 10, c + 10, ""},
				verdict{"bad table entry outside the window", flip(bs + 9), 0, c, ""},
				verdict{"bad table entry of the window's cell", flip(bs + 1), c - 1, 1, "checksum"},
			)
		}
		for _, tc := range cases {
			p := filepath.Join(t.TempDir(), "block")
			if err := os.WriteFile(p, tc.content, 0o644); err != nil {
				t.Fatal(err)
			}
			dst := make([]byte, tc.n)
			err := s.readBlockInto(p, dst, tc.off)
			switch {
			case tc.want == "" && (err != nil || !bytes.Equal(dst, frame[tc.off:tc.off+tc.n])):
				t.Errorf("%d-byte block, %s: err %v, payload equal %v", bs, tc.name, err, bytes.Equal(dst, frame[tc.off:tc.off+tc.n]))
			case tc.want != "" && (!errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("%d-byte block, %s: err = %v, want ErrCorrupt (%s)", bs, tc.name, err, tc.want)
			}
		}
		if err := s.readBlockInto(filepath.Join(t.TempDir(), "absent"), make([]byte, bs), 0); !os.IsNotExist(err) {
			t.Errorf("missing block file: err = %v", err)
		}
		p := filepath.Join(t.TempDir(), "block")
		if err := os.WriteFile(p, frame, 0o644); err != nil {
			t.Fatal(err)
		}
		opens := new(atomic.Int64)
		s.SetBlockIO(streamIO{opens: opens})
		if err := s.readBlockInto(p, make([]byte, bs), 0); err == nil || errors.Is(err, ErrCorrupt) {
			t.Errorf("a frame opened as no io.ReaderAt: err = %v, want a plain error", err)
		}
		if n := opens.Load(); n != 1 {
			t.Errorf("a frame opened as no io.ReaderAt was opened %d times, want 1: no retry can help", n)
		}
		if _, err := s.Get("f"); err == nil {
			t.Error("Get through a BlockIO that opens no io.ReaderAt succeeded")
		}
		if q, err := s.Quarantined(); err != nil || len(q) != 0 {
			t.Errorf("Get through a BlockIO that opens no io.ReaderAt quarantined %v (err %v), want nothing", q, err)
		}
	}
}

// streamIO opens block files as plain streams, which are no
// io.ReaderAt, and counts the opens.
type streamIO struct {
	osBlockIO
	opens *atomic.Int64
}

func (sio streamIO) Open(path string) (io.ReadCloser, error) {
	sio.opens.Add(1)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return struct{ io.ReadCloser }{f}, nil
}
