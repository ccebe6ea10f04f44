package hdfsraid

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultfs"
)

// tearingIO tears every block write whose file name match selects —
// through a faultfs injector that tears all it writes, so a prefix of
// the frame lands and the write fails — and passes the rest through.
type tearingIO struct {
	osBlockIO
	torn  *faultfs.FS
	match func(base string) bool
}

func (t tearingIO) WriteFile(path string, data []byte, perm os.FileMode) error {
	if t.match(filepath.Base(path)) {
		return t.torn.WriteFile(path, data, perm)
	}
	return os.WriteFile(path, data, perm)
}

func newTearingIO(match func(base string) bool) tearingIO {
	return tearingIO{torn: faultfs.New(faultfs.Config{Seed: 1, TornWrite: 1}), match: match}
}

// nodeFiles lists the block files under the store's node directories
// whose names start with prefix.
func nodeFiles(t *testing.T, s *Store, prefix string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(s.root, "node-*", prefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestFailedPutLeavesNothing: a PUT that fails mid-stream — its source
// errors after a whole stripe went out, or a write of its second stripe
// tears — removes every replica it wrote. Nothing of the name stays
// under any node directory and fsck counts no orphan. (rs-9-6 with
// 6-block extents: one stripe per extent.)
func TestFailedPutLeavesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  func() io.Reader
		bio  BlockIO
	}{
		{"source-error", func() io.Reader {
			return io.MultiReader(bytes.NewReader(make([]byte, 7*blockSize)), failReader{})
		}, nil},
		{"torn-write", func() io.Reader {
			return bytes.NewReader(randomFile(t, 13*blockSize, 5))
		}, newTearingIO(func(base string) bool { return strings.HasPrefix(base, "f.x1.") })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newExtStore(t, "rs-9-6", 6)
			s.SetBlockIO(tc.bio)
			if err := s.PutReader("f", tc.src()); err == nil {
				t.Fatal("failed put reported success")
			}
			if _, ok := s.Info("f"); ok {
				t.Fatal("failed put recorded the file")
			}
			if left := nodeFiles(t, s, "f."); len(left) != 0 {
				t.Fatalf("failed put left %d block files: %v", len(left), left)
			}
			if fsck, err := s.Fsck(); err != nil || fsck.Orphans != 0 {
				t.Fatalf("fsck after failed put: %+v, %v", fsck, err)
			}
		})
	}
}

// TestFailedMoveLeavesNoGeneration: a move whose write of its second
// stripe tears removes the next generation it was writing, and the file
// reads back from the generation it still has.
func TestFailedMoveLeavesNoGeneration(t *testing.T) {
	s := newStore(t, "rs-9-6")
	data := randomFile(t, 40*blockSize+7, 6)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	s.SetBlockIO(newTearingIO(func(base string) bool {
		return strings.HasPrefix(base, "f.1.") && strings.HasSuffix(base, ".g1")
	}))
	if _, err := s.Transcode("f", "pentagon"); err == nil {
		t.Fatal("failed move reported success")
	}
	s.SetBlockIO(nil)
	if left := nodeFiles(t, s, "f.*.g"); len(left) != 0 {
		t.Fatalf("failed move left %d next-generation files: %v", len(left), left)
	}
	if got, err := s.Get("f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("file wrong after a failed move (%v)", err)
	}
	if fsck, err := s.Fsck(); err != nil || !fsck.Healthy() || fsck.Orphans != 0 {
		t.Fatalf("fsck after failed move: %+v, %v", fsck, err)
	}
}
