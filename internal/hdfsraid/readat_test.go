package hdfsraid

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestReadAtRanges drives ReadAt over every interesting range shape —
// block-aligned, straddling block and extent boundaries, single bytes,
// the tail — and checks byte-exactness against the stored data.
func TestReadAtRanges(t *testing.T) {
	s, err := CreateExt(t.TempDir(), "rs-9-6", blockSize, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Three extents (6+6+2 data blocks) with a partial tail block.
	data := randomFile(t, 14*blockSize-100, 7)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ off, n int }{
		{0, len(data)},                        // whole file
		{0, blockSize},                        // first block exactly
		{blockSize - 1, 2},                    // straddles a block boundary
		{6*blockSize - 10, 20},                // straddles the extent boundary
		{len(data) - 5, 5},                    // tail of the partial block
		{3*blockSize + 17, 2*blockSize + 100}, // unaligned multi-block
		{42, 1},                               // single byte
	}
	for _, c := range cases {
		p := make([]byte, c.n)
		n, err := s.ReadAt(p, "f", int64(c.off))
		if err != nil {
			t.Fatalf("ReadAt(off=%d, n=%d): %v", c.off, c.n, err)
		}
		if n != c.n {
			t.Fatalf("ReadAt(off=%d, n=%d): read %d bytes", c.off, c.n, n)
		}
		if !bytes.Equal(p, data[c.off:c.off+c.n]) {
			t.Fatalf("ReadAt(off=%d, n=%d): wrong bytes", c.off, c.n)
		}
	}
}

func TestReadAtEdges(t *testing.T) {
	s := newStore(t, "rs-9-6")
	data := randomFile(t, 2*blockSize+50, 8)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	// Past-end read yields the available bytes and io.EOF.
	p := make([]byte, 100)
	n, err := s.ReadAt(p, "f", int64(len(data)-30))
	if err != io.EOF {
		t.Fatalf("past-end read: err = %v, want io.EOF", err)
	}
	if n != 30 || !bytes.Equal(p[:n], data[len(data)-30:]) {
		t.Fatalf("past-end read: n=%d or wrong bytes", n)
	}
	// At-end read is pure EOF.
	if n, err := s.ReadAt(p, "f", int64(len(data))); n != 0 || err != io.EOF {
		t.Fatalf("at-end read: n=%d err=%v, want 0, io.EOF", n, err)
	}
	// Empty buffer reads nothing.
	if n, err := s.ReadAt(nil, "f", 0); n != 0 || err != nil {
		t.Fatalf("empty read: n=%d err=%v", n, err)
	}
	// Negative offset and unknown file fail.
	if _, err := s.ReadAt(p, "f", -1); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := s.ReadAt(p, "nope", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown file: err = %v, want ErrNotFound", err)
	}
}

// TestReadAtDegraded kills a node and checks ranged reads still return
// exact bytes through the code's read plans.
func TestReadAtDegraded(t *testing.T) {
	s := newStore(t, "rs-9-6")
	data := randomFile(t, 3*blockSize*s.Code().DataSymbols(), 9)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	if err := s.KillNode(2); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 4*blockSize)
	off := int64(blockSize / 2)
	n, err := s.ReadAt(p, "f", off)
	if err != nil || n != len(p) {
		t.Fatalf("degraded ReadAt: n=%d err=%v", n, err)
	}
	if !bytes.Equal(p, data[off:off+int64(len(p))]) {
		t.Fatal("degraded ReadAt: wrong bytes")
	}
}

func TestDelete(t *testing.T) {
	s := newStore(t, "pentagon")
	data := randomFile(t, 2*blockSize*s.Code().DataSymbols(), 10)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	removed, err := s.Delete("f")
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("Delete removed no blocks")
	}
	if _, err := s.Get("f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete: err = %v, want ErrNotFound", err)
	}
	if _, err := s.Delete("f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Delete: err = %v, want ErrNotFound", err)
	}
	// The name is free for re-ingest, and the store stays healthy.
	if err := s.Put("f", data[:blockSize]); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("unhealthy after delete + re-put: %+v", rep)
	}
}

// stuckRemove is a BlockIO whose Remove fails for block files under
// one node directory — a Delete's reclamation leaks exactly those.
type stuckRemove struct {
	BlockIO
	dir string
}

func (r stuckRemove) Remove(path string) error {
	if strings.Contains(path, r.dir) {
		return fmt.Errorf("stuckRemove: %s", path)
	}
	return r.BlockIO.Remove(path)
}

// TestDeleteLeakSurfacesAsOrphans: block reclamation after a Delete's
// manifest commit is best-effort, so a Remove that fails leaks the
// block — silently, until Fsck counts the files nothing expects.
func TestDeleteLeakSurfacesAsOrphans(t *testing.T) {
	s := newStore(t, "pentagon")
	data := randomFile(t, 2*blockSize*s.Code().DataSymbols(), 12)
	for _, name := range []string{"f", "kept"} {
		if err := s.Put(name, data); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Orphans != 0 {
		t.Fatalf("fresh store reports %d orphans", rep.Orphans)
	}
	perFile := rep.Blocks / 2

	s.SetBlockIO(stuckRemove{BlockIO: osBlockIO{}, dir: "node-02"})
	removed, err := s.Delete("f")
	if err != nil {
		t.Fatal(err)
	}
	leaked := perFile - removed
	if leaked == 0 {
		t.Fatal("the stuck node leaked nothing; the test is not testing")
	}
	s.SetBlockIO(nil)
	rep, err = s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Orphans != leaked || !rep.Healthy() || rep.Blocks != perFile {
		t.Fatalf("after a Delete leaking %d blocks: %+v", leaked, rep)
	}
	if got := s.obs.counters[cFsckOrphans].Value(); got != int64(leaked) {
		t.Fatalf("store_fsck_orphans_total = %d, want %d", got, leaked)
	}
}

// TestDeleteSurvivesReopen proves the delete is durable: the manifest
// no longer names the file after a fresh Open.
func TestDeleteSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "pentagon", blockSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("f", randomFile(t, blockSize, 11)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("f"); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Info("f"); ok {
		t.Fatal("deleted file still in manifest after reopen")
	}
}
