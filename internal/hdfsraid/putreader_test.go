package hdfsraid

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// chunkReader yields data in awkward chunk sizes so PutReader's block
// filler sees short reads, not just block-aligned ones.
type chunkReader struct {
	data  []byte
	chunk int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := c.chunk
	if n > len(p) {
		n = len(p)
	}
	if n > len(c.data) {
		n = len(c.data)
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// blockFiles reads every file under the store's node directories,
// keyed by root-relative path.
func blockFiles(t *testing.T, s *Store) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(s.root, "node-*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(s.root, p)
		files[rel] = string(raw)
	}
	return files
}

// TestPutReaderRoundTrip streams files of awkward sizes — empty,
// sub-block, stripe-aligned, extent-straddling — through PutReader and
// checks they read back byte-identical with the same layout Put would
// record.
func TestPutReaderRoundTrip(t *testing.T) {
	for _, ext := range []int{0, 6, 10} {
		for _, size := range []int{0, 1, blockSize - 1, blockSize, 6 * blockSize, 13*blockSize + 7, 20 * blockSize} {
			t.Run(fmt.Sprintf("ext%d/%d", ext, size), func(t *testing.T) {
				s, err := CreateExt(t.TempDir(), "rs-9-6", blockSize, ext)
				if err != nil {
					t.Fatal(err)
				}
				data := randomFile(t, size, int64(300+size))
				if err := s.PutReader("f", &chunkReader{data: data, chunk: 1000}); err != nil {
					t.Fatal(err)
				}
				fi, ok := s.Info("f")
				if !ok || fi.Length != size {
					t.Fatalf("Info = %+v, %v; want length %d", fi, ok, size)
				}
				got, err := s.Get("f")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, data) {
					t.Fatal("streamed put round trip mismatch")
				}
				fsck, err := s.Fsck()
				if err != nil || !fsck.Healthy() {
					t.Fatalf("unhealthy after streamed put: %+v, %v", fsck, err)
				}
				// A buffered Put of the same bytes records the same
				// manifest entry over byte-identical block files.
				s2, err := CreateExt(t.TempDir(), "rs-9-6", blockSize, ext)
				if err != nil {
					t.Fatal(err)
				}
				if err := s2.Put("f", data); err != nil {
					t.Fatal(err)
				}
				if fi2, _ := s2.Info("f"); !reflect.DeepEqual(fi, fi2) {
					t.Fatalf("streamed entry %+v != buffered entry %+v", fi, fi2)
				}
				blocks, blocks2 := blockFiles(t, s), blockFiles(t, s2)
				if len(blocks) != fsck.Blocks || !reflect.DeepEqual(blocks, blocks2) {
					t.Fatalf("streamed and buffered block files differ (%d vs %d files, %d expected)",
						len(blocks), len(blocks2), fsck.Blocks)
				}
			})
		}
	}
}

// TestPutReaderThenTier: a streamed file tiers per extent like any
// other.
func TestPutReaderThenTier(t *testing.T) {
	s, err := CreateExt(t.TempDir(), "rs-9-6", blockSize, 6)
	if err != nil {
		t.Fatal(err)
	}
	data := randomFile(t, 18*blockSize, 310)
	if err := s.PutReader("f", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TranscodeExtent("f", 0, "pentagon"); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("tiered streamed file wrong (%v)", err)
	}
}

// readDuringStream serves bytes whose production requires reading
// another file from the same store — it deadlocks unless PutReader
// streams without holding the store lock.
type readDuringStream struct {
	s    *Store
	left int
}

func (r *readDuringStream) Read(p []byte) (int, error) {
	if r.left == 0 {
		return 0, io.EOF
	}
	if _, err := r.s.Get("other"); err != nil {
		return 0, err
	}
	n := len(p)
	if n > r.left {
		n = r.left
	}
	r.left -= n
	return n, nil
}

// TestPutReaderDoesNotBlockReads: a slow source must not freeze the
// store — the regression guard is a reader that itself Gets another
// file mid-stream, which deadlocks if PutReader holds the manifest
// lock across the drain.
func TestPutReaderDoesNotBlockReads(t *testing.T) {
	s := newExtStore(t, "rs-9-6", 6)
	if err := s.Put("other", randomFile(t, blockSize, 320)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutReader("f", &readDuringStream{s: s, left: 8 * blockSize}); err != nil {
		t.Fatal(err)
	}
	fi, ok := s.Info("f")
	if !ok || fi.Length != 8*blockSize {
		t.Fatalf("Info = %+v, %v", fi, ok)
	}
	if fsck, err := s.Fsck(); err != nil || !fsck.Healthy() {
		t.Fatalf("unhealthy: %+v, %v", fsck, err)
	}
}

// TestPutReaderSameNameRace: two concurrent streamed puts of one name
// must serialize on the ingest lock — exactly one wins, and the
// winner's committed bytes are never overwritten by the loser (the
// loser fails its pre-stream check without writing a block).
func TestPutReaderSameNameRace(t *testing.T) {
	s := newExtStore(t, "rs-9-6", 6)
	a := randomFile(t, 9*blockSize, 330)
	b := randomFile(t, 9*blockSize, 331)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, data := range [][]byte{a, b} {
		i, data := i, data
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.PutReader("f", &chunkReader{data: data, chunk: 777})
		}()
	}
	wg.Wait()
	if (errs[0] == nil) == (errs[1] == nil) {
		t.Fatalf("want exactly one winner: errs = %v", errs)
	}
	want := a
	if errs[0] != nil {
		want = b
	}
	got, err := s.Get("f")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("winner's bytes corrupted by the losing stream (%v)", err)
	}
	if fsck, err := s.Fsck(); err != nil || !fsck.Healthy() {
		t.Fatalf("unhealthy after racing puts: %+v, %v", fsck, err)
	}
}

// TestPutReaderValidation rejects duplicates and propagates reader
// errors without recording the file.
func TestPutReaderValidation(t *testing.T) {
	s := newExtStore(t, "rs-9-6", 6)
	if err := s.PutReader("f", bytes.NewReader(nil)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutReader("f", bytes.NewReader(nil)); err == nil {
		t.Fatal("duplicate streamed put accepted")
	}
	bad := io.MultiReader(bytes.NewReader(make([]byte, 3*blockSize)), &failReader{})
	if err := s.PutReader("g", bad); err == nil {
		t.Fatal("reader error swallowed")
	}
	if _, ok := s.Info("g"); ok {
		t.Fatal("failed streamed put recorded the file")
	}
	// A source that ends in its own io.ErrUnexpectedEOF — a request
	// body cut short of its Content-Length — failed, it did not end.
	cut := io.MultiReader(bytes.NewReader(make([]byte, 7*blockSize)), errReader{io.ErrUnexpectedEOF})
	if err := s.PutReader("h", cut); err == nil {
		t.Fatal("truncated source stored as a complete file")
	}
	if _, ok := s.Info("h"); ok {
		t.Fatal("truncated streamed put recorded the file")
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

type failReader struct{}

func (failReader) Read([]byte) (int, error) { return 0, fmt.Errorf("injected read failure") }
