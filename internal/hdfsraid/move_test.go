package hdfsraid

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMoveCrashMatrix kills an extent move at both kill points, in both
// directions, on flat and extent-qualified block names, with the moved
// extent's tail stripe shortened under both codes, while Get, ReadAt
// and ReadTo readers — cache on and off — run throughout. No read is
// ever refused or wrong, before the kill, at it (the process parks
// there until every reader has read again) or after; the reopened
// store holds the extent byte-exact under exactly one generation.
func TestMoveCrashMatrix(t *testing.T) {
	for _, extBlocks := range []int{0, 7} {
		for _, demote := range []bool{false, true} {
			for _, tc := range moveKillPoints {
				for _, cached := range []bool{false, true} {
					name := fmt.Sprintf("ext%d/demote=%v/%s/cache=%v", extBlocks, demote, tc.point, cached)
					t.Run(name, func(t *testing.T) { moveCrash(t, extBlocks, demote, tc.point, tc.moved, cached) })
				}
			}
		}
	}
}

func moveCrash(t *testing.T, extBlocks int, demote bool, point string, moved, cached bool) {
	dir := t.TempDir()
	s, err := CreateExt(dir, "rs-9-6", blockSize, extBlocks)
	if err != nil {
		t.Fatal(err)
	}
	// 16 blocks and a bit: one 17-block extent, or 7 + 7 + 3; the moved
	// extent (the first) has a short tail on rs-9-6 and on pentagon.
	want := randomFile(t, 16*blockSize+100, 801)
	if err := s.Put("f", want); err != nil {
		t.Fatal(err)
	}
	from, to := "rs-9-6", "pentagon"
	if demote {
		from, to = to, from
		if _, err := s.TranscodeExtent("f", 0, from); err != nil {
			t.Fatal(err)
		}
	}
	if cached {
		s.SetReadCache(NewReadCache(1 << 20))
	}

	var reads atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan string, 4) // a reader sends once, then returns
	reader := func(seed int64, read func(rng *rand.Rand) (got, want []byte, err error)) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for {
			select {
			case <-stop:
				return
			default:
			}
			got, exp, err := read(rng)
			if err != nil || !bytes.Equal(got, exp) {
				fail <- fmt.Sprintf("read during a move killed at %s: err %v, bytes equal %v", point, err, bytes.Equal(got, exp))
				return
			}
			reads.Add(1)
		}
	}
	span := func(rng *rand.Rand) (off, n int) {
		off = rng.Intn(len(want) - 1)
		return off, 1 + rng.Intn(min(len(want)-off, 3*blockSize))
	}
	readers := []func(rng *rand.Rand) ([]byte, []byte, error){
		func(*rand.Rand) ([]byte, []byte, error) {
			got, err := s.Get("f")
			return got, want, err
		},
		func(rng *rand.Rand) ([]byte, []byte, error) {
			off, n := span(rng)
			p := make([]byte, n)
			_, err := s.ReadAt(p, "f", int64(off))
			return p, want[off : off+n], err
		},
		func(rng *rand.Rand) ([]byte, []byte, error) {
			off, n := span(rng)
			got, err := readTo(s, "f", int64(off), int64(n))
			return got, want[off : off+n], err
		},
		func(*rand.Rand) ([]byte, []byte, error) {
			got, err := readTo(s, "f", 0, -1)
			return got, want, err
		},
	}
	for i, r := range readers {
		wg.Add(1)
		go reader(int64(i), r)
	}
	// The process "dies" at the point only once every reader has been
	// round again with the disk exactly as the crash leaves it.
	s.killHook = func(p string) error {
		if p != point {
			return nil
		}
		for target := reads.Load() + int64(3*len(readers)); reads.Load() < target && len(fail) == 0; {
			time.Sleep(100 * time.Microsecond)
		}
		return errKilled
	}
	_, err = s.TranscodeExtent("f", 0, to)
	for target := reads.Load() + int64(len(readers)); reads.Load() < target && len(fail) == 0; {
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if !errors.Is(err, errKilled) {
		t.Fatalf("TranscodeExtent error = %v, want simulated crash", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := s2.ExtentCode("f", 0); code != movedCode(moved, from, to) {
		t.Fatalf("extent 0 recovered onto %q", code)
	}
	if got, err := s2.Get("f"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("bytes wrong after recovery (%v)", err)
	}
	assertExactLayout(t, s2)
	fi, _ := s2.Info("f")
	gen := fi.Extents[0].Gen
	for rel := range blockFiles(t, s2) {
		first := extBlocks == 0 || strings.Contains(rel, "/f.x0.")
		if carries := strings.HasSuffix(rel, fmt.Sprintf(".g%d", gen)); first && gen > 0 && !carries || (!first || gen == 0) && strings.Contains(rel, ".g") {
			t.Fatalf("%s on disk with extent 0 at generation %d", rel, gen)
		}
	}
}

// TestRecoverSparesInflightIngest: the recovery sweep removes what a
// killed move left and nothing else — a PutReader parked mid-stream
// (its name not yet in the manifest) keeps every block it has written
// and then commits, and the blocks a Delete could not reclaim stay the
// orphans they were.
func TestRecoverSparesInflightIngest(t *testing.T) {
	s := newExtStore(t, "rs-9-6", 6)
	moved, gone := randomFile(t, 9*blockSize, 810), randomFile(t, 6*blockSize, 811)
	if err := s.Put("moved", moved); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("gone", gone); err != nil {
		t.Fatal(err)
	}
	bio := &countingIO{}
	s.SetBlockIO(bio)
	bio.frozen.Store(true) // every Remove fails: the delete leaks all its blocks
	leaked, err := s.Delete("gone")
	bio.frozen.Store(false)
	if err != nil || leaked != 0 {
		t.Fatalf("Delete with reclamation failing: %d removed, %v", leaked, err)
	}
	killAt(s, "staged")
	if _, err := s.TranscodeExtent("moved", 0, "pentagon"); !errors.Is(err, errKilled) {
		t.Fatal("expected simulated crash")
	}
	s.killHook = nil

	// An ingest parked after its first extent's stripes are on disk.
	data := randomFile(t, 15*blockSize, 812)
	src := &parkedReader{r: bytes.NewReader(data), at: 8 * blockSize, parked: make(chan struct{}), release: make(chan struct{})}
	put := make(chan error, 1)
	go func() { put <- s.PutReader("arriving", src) }()
	<-src.parked
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if n := countPrefix(t, s, "arriving."); n >= blocksOn(t, s, "rs-9-6", 6) {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("the parked ingest wrote only %d blocks", n)
		}
	}
	before := blockFiles(t, s)
	rec, err := s.Recover()
	if want := blocksOn(t, s, "pentagon", 6); err != nil || rec.Orphans != want {
		t.Fatalf("recover = %+v, %v; want the killed move's %d blocks swept", rec, err, want)
	}
	after := blockFiles(t, s)
	for rel, frame := range before {
		if strings.HasSuffix(rel, ".g1") {
			if _, left := after[rel]; left {
				t.Fatalf("%s of the unrecorded generation survived the sweep", rel)
			}
		} else if got, left := after[rel]; !left || got != frame && !strings.Contains(rel, "/arriving.") {
			t.Fatalf("the sweep touched %s", rel) // (the ingest may still be writing its own)
		}
	}
	close(src.release)
	if err := <-put; err != nil {
		t.Fatalf("the parked ingest after the sweep: %v", err)
	}
	for name, want := range map[string][]byte{"moved": moved, "arriving": data} {
		if got, err := s.Get(name); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get %s: %v", name, err)
		}
	}
	if fsck, err := s.Fsck(); err != nil || !fsck.Healthy() || fsck.Orphans != blocksOn(t, s, "rs-9-6", 6) {
		t.Fatalf("fsck = %+v, %v; want healthy with the leaked delete's blocks the only orphans", fsck, err)
	}
}

// parkedReader hands out r's bytes and blocks, once, before the read
// that would pass offset at, after announcing it.
type parkedReader struct {
	r               io.Reader
	n, at           int
	parked, release chan struct{}
}

func (p *parkedReader) Read(b []byte) (int, error) {
	if p.n >= p.at && p.parked != nil {
		close(p.parked)
		<-p.release
		p.parked = nil
	}
	if p.n < p.at {
		b = b[:min(len(b), p.at-p.n)]
	}
	n, err := p.r.Read(b)
	p.n += n
	return n, err
}

// countPrefix counts the block files whose name starts with prefix.
func countPrefix(t *testing.T, s *Store, prefix string) (n int) {
	t.Helper()
	err := s.walkNodeDirs(func(_ int, name string) error {
		if strings.HasPrefix(name, prefix) {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// parkingIO parks the first Remove it sees until released, after
// announcing it.
type parkingIO struct {
	osBlockIO
	seen            atomic.Bool
	parked, release chan struct{}
}

func (p *parkingIO) Remove(path string) error {
	if p.seen.CompareAndSwap(false, true) {
		close(p.parked)
		<-p.release
	}
	return os.Remove(path)
}

// TestMoveReclaimHoldsNoLock: a move reclaims the generation it
// superseded with no store lock held. With a Remove of that reclaim
// parked, a Get of the moved file, a PutReader and a Delete of other
// names all complete. At the parent commit the removes ran under the
// store's write lock, between two fsyncs.
func TestMoveReclaimHoldsNoLock(t *testing.T) {
	s := newStore(t, "rs-9-6")
	want := putFiles(t, s, 2, 9*blockSize+1)
	bio := &parkingIO{parked: make(chan struct{}), release: make(chan struct{})}
	s.SetBlockIO(bio)
	move := make(chan error, 1)
	go func() {
		_, err := s.Transcode("f0", "pentagon")
		move <- err
	}()
	<-bio.parked
	others := make(chan error, 1)
	go func() {
		got, err := s.Get("f0")
		if err == nil && !bytes.Equal(got, want["f0"]) {
			err = errors.New("moved file read back wrong")
		}
		if err == nil {
			err = s.PutReader("new", bytes.NewReader(want["f1"]))
		}
		if err == nil {
			_, err = s.Delete("f1")
		}
		others <- err
	}()
	select {
	case err := <-others:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a get, a put and a delete waited on a move parked in its reclaim: a store lock is held across the removes")
	}
	close(bio.release)
	if err := <-move; err != nil {
		t.Fatal(err)
	}
	assertExactLayout(t, s)
}
