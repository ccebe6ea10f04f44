package hdfsraid

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// newExtStore creates a store whose Puts split files into extentBlocks
// -sized extents.
func newExtStore(t *testing.T, code string, extentBlocks int) *Store {
	t.Helper()
	s, err := CreateExt(t.TempDir(), code, blockSize, extentBlocks)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestExtentPutGetRoundTrip stores files straddling several extents —
// including ragged extent and block tails — and reads them back.
func TestExtentPutGetRoundTrip(t *testing.T) {
	for _, size := range []int{
		0,                    // empty file
		blockSize / 2,        // single partial block
		6 * blockSize,        // exactly one extent
		18 * blockSize,       // exactly three extents
		20*blockSize + 17,    // ragged tail block in a partial extent
		2*6*blockSize + 3000, // two full extents plus change
	} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			s := newExtStore(t, "rs-9-6", 6)
			data := randomFile(t, size, int64(200+size))
			if err := s.Put("f", data); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get("f")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("round trip mismatch")
			}
			exts, ok := s.Extents("f")
			if !ok {
				t.Fatal("no extents")
			}
			wantExts := (s.dataBlocks(size) + 5) / 6
			if wantExts == 0 {
				wantExts = 1
			}
			if len(exts) != wantExts {
				t.Fatalf("extents = %d, want %d", len(exts), wantExts)
			}
			if fsck, err := s.Fsck(); err != nil || !fsck.Healthy() {
				t.Fatalf("unhealthy: %+v, %v", fsck, err)
			}
		})
	}
}

// TestExtentMoveBoundedBytes is the partial-move acceptance test: a
// hot-extent move of a large file transcodes only that extent's bytes.
// The report's reads are exactly the extent's data blocks and its
// writes exactly the extent's new stripes times the code's replicas —
// bounded by extent size plus stripe padding, never file size.
func TestExtentMoveBoundedBytes(t *testing.T) {
	const extBlocks = 12 // 2 stripes of rs-9-6
	s := newExtStore(t, "rs-9-6", extBlocks)
	// 5 extents = 60 data blocks; a whole-file move would read them all.
	want := randomFile(t, 60*blockSize, 210)
	if err := s.Put("f", want); err != nil {
		t.Fatal(err)
	}
	cost, err := s.TranscodeExtentCost("f", 2, "pentagon")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.TranscodeExtent("f", 2, "pentagon")
	if err != nil {
		t.Fatal(err)
	}
	if rep.DataBlocksRead != extBlocks {
		t.Fatalf("read %d data blocks, want exactly the extent's %d (file has 60)", rep.DataBlocksRead, extBlocks)
	}
	// ceil(12/9) = 2 pentagon stripes: a full one at 20 physical
	// replicas plus a shortened one storing 3 data symbols and the
	// parity twice each (8; its other 6 data symbols are known zeros)
	// — a whole-file move would write 6*20 + (6 data + parity)*2 = 134.
	if wantWritten := 20 + 8; rep.BlocksWritten != wantWritten {
		t.Fatalf("wrote %d blocks, want %d (extent-scoped)", rep.BlocksWritten, wantWritten)
	}
	if rep.Extents != 1 || rep.Stripes != 2 {
		t.Fatalf("report = %+v", rep)
	}
	// The extent-scoped cost estimate priced the same move.
	if cost != rep.DataBlocksRead+rep.BlocksWritten {
		t.Fatalf("TranscodeExtentCost = %d, report says %d", cost, rep.DataBlocksRead+rep.BlocksWritten)
	}
	// Only extent 2 changed tier.
	for ext := 0; ext < 5; ext++ {
		wantCode := "rs-9-6"
		if ext == 2 {
			wantCode = "pentagon"
		}
		if code, _ := s.ExtentCode("f", ext); code != wantCode {
			t.Fatalf("extent %d on %q, want %q", ext, code, wantCode)
		}
	}
	if code, _ := s.FileCode("f"); code != MixedCode {
		t.Fatalf("FileCode = %q, want mixed", code)
	}
	got, err := s.Get("f")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("bytes wrong after extent move (%v)", err)
	}
	assertExactLayout(t, s)

	// Moving the extent back restores a uniform file.
	if _, err := s.TranscodeExtent("f", 2, "rs-9-6"); err != nil {
		t.Fatal(err)
	}
	if code, _ := s.FileCode("f"); code != "rs-9-6" {
		t.Fatalf("FileCode after demote = %q", code)
	}
	got, err = s.Get("f")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("bytes wrong after extent demote (%v)", err)
	}

	// Extents that do not fill their stripes (1, k-1, k+1, 2k+2 blocks
	// of rs-9-6) are billed what the move does: the extent's data
	// blocks read, no source padding, plus the replicas actually stored.
	for _, blocks := range []int{1, 5, 7, 14} {
		s := newExtStore(t, "rs-9-6", blocks)
		if err := s.Put("f", randomFile(t, 3*blocks*blockSize, 211)); err != nil {
			t.Fatal(err)
		}
		for _, to := range []string{"pentagon", "rs-9-6"} {
			cost, err := s.TranscodeExtentCost("f", 1, to)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.TranscodeExtent("f", 1, to)
			if err != nil {
				t.Fatal(err)
			}
			if rep.DataBlocksRead != blocks || cost != rep.DataBlocksRead+rep.BlocksWritten {
				t.Fatalf("%d-block extent -> %s: cost %d, report %+v", blocks, to, cost, rep)
			}
		}
		if fsck, err := s.Fsck(); err != nil || !fsck.Healthy() || fsck.Orphans != 0 {
			t.Fatalf("%d-block extents after the round trip: %+v, %v", blocks, fsck, err)
		}
	}
}

// TestExtentMoveKillPoints crashes an extent move of a multi-extent
// file (extent-qualified block names) at both kill points and checks
// that reopening the store leaves the extent on exactly one code and
// generation, with every other extent untouched and the file
// byte-identical.
func TestExtentMoveKillPoints(t *testing.T) {
	for _, tc := range moveKillPoints {
		t.Run(tc.point, func(t *testing.T) {
			dir := t.TempDir()
			s, err := CreateExt(dir, "rs-9-6", blockSize, 6)
			if err != nil {
				t.Fatal(err)
			}
			want := randomFile(t, 18*blockSize+11, 220)
			if err := s.Put("f", want); err != nil {
				t.Fatal(err)
			}
			killAt(s, tc.point)
			if _, err := s.TranscodeExtent("f", 1, "pentagon"); !errors.Is(err, errKilled) {
				t.Fatalf("TranscodeExtent error = %v, want simulated crash", err)
			}
			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			stale := blocksOn(t, s2, movedCode(!tc.moved, "rs-9-6", "pentagon"), 6)
			if rec := s2.LastRecovery(); rec.Orphans != stale {
				t.Fatalf("recovery = %+v, want the other generation's %d blocks swept", rec, stale)
			}
			for ext := 0; ext < 4; ext++ {
				wantCode := "rs-9-6"
				if ext == 1 {
					wantCode = movedCode(tc.moved, "rs-9-6", "pentagon")
				}
				if code, _ := s2.ExtentCode("f", ext); code != wantCode {
					t.Fatalf("extent %d recovered onto %q, want %q", ext, code, wantCode)
				}
			}
			got, err := s2.Get("f")
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("bytes wrong after recovery (%v)", err)
			}
			assertExactLayout(t, s2)
		})
	}
}

// TestExtentMovesSameFileConcurrent races moves of two different
// extents of one file: per-extent locking must let them overlap and
// both land, byte-identical.
func TestExtentMovesSameFileConcurrent(t *testing.T) {
	s := newExtStore(t, "rs-9-6", 6)
	want := randomFile(t, 18*blockSize, 221)
	if err := s.Put("f", want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, ext := range []int{0, 2} {
		i, ext := i, ext
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = s.TranscodeExtent("f", ext, "pentagon")
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
	}
	for ext, wantCode := range map[int]string{0: "pentagon", 1: "rs-9-6", 2: "pentagon"} {
		if code, _ := s.ExtentCode("f", ext); code != wantCode {
			t.Fatalf("extent %d on %q, want %q", ext, code, wantCode)
		}
	}
	got, err := s.Get("f")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("bytes wrong after concurrent extent moves (%v)", err)
	}
	if fsck, err := s.Fsck(); err != nil || !fsck.Healthy() {
		t.Fatalf("unhealthy: %+v, %v", fsck, err)
	}
}

// TestExtentRepairMixedTiers kills nodes under a file whose extents
// sit on different codes and checks one Repair pass heals every
// extent with its own code's plan.
func TestExtentRepairMixedTiers(t *testing.T) {
	s := newExtStore(t, "rs-9-6", 6)
	want := randomFile(t, 18*blockSize, 222)
	if err := s.Put("f", want); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TranscodeExtent("f", 1, "pentagon"); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{1, 3} {
		if err := s.KillNode(v); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Repair([]int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksRestored == 0 {
		t.Fatalf("repair report = %+v", rep)
	}
	if fsck, err := s.Fsck(); err != nil || !fsck.Healthy() {
		t.Fatalf("unhealthy after mixed-extent repair: %+v, %v", fsck, err)
	}
	got, err := s.Get("f")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("bytes wrong after repair (%v)", err)
	}
}

// TestExtentReadBlock addresses blocks through the concatenated
// extent stripe space, with a degraded read across a killed node.
func TestExtentReadBlock(t *testing.T) {
	s := newExtStore(t, "rs-9-6", 6)
	want := randomFile(t, 13*blockSize, 223) // 3 extents: 6+6+1 blocks
	if err := s.Put("f", want); err != nil {
		t.Fatal(err)
	}
	var touched []int
	s.OnReadExtent = func(name string, ext int) { touched = append(touched, ext) }
	// File stripe 1 is extent 1's stripe 0; its symbol 2 is global
	// data block 8.
	got, _, err := s.ReadBlock("f", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want[8*blockSize:9*blockSize]) {
		t.Fatal("extent-addressed block read returned wrong bytes")
	}
	if len(touched) != 1 || touched[0] != 1 {
		t.Fatalf("extent hook calls = %v, want [1]", touched)
	}
	// Degraded: kill data symbol 2's replica holder and reread.
	p := s.Code().Placement()
	for _, v := range p.SymbolNodes[2] {
		if err := s.KillNode(v); err != nil {
			t.Fatal(err)
		}
	}
	got, cost, err := s.ReadBlock("f", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cost == 0 {
		t.Fatal("degraded read reported zero transfers")
	}
	if !bytes.Equal(got, want[8*blockSize:9*blockSize]) {
		t.Fatal("degraded extent block read returned wrong bytes")
	}
}

// TestPreExtentManifestRefused: a manifest entry with no extent map —
// what stores wrote before extents existed — is refused by Open with
// validateExtents' message, not migrated.
func TestPreExtentManifestRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "rs-9-6", blockSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("f", randomFile(t, 9*blockSize+5, 230)); err != nil {
		t.Fatal(err)
	}
	if err := s.checkpoint(); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(readFile(t, filepath.Join(dir, manifestName)), &m); err != nil {
		t.Fatal(err)
	}
	delete(m["files"].(map[string]any)["f"].(map[string]any), "extents")
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), `file "f" has no extents`) {
		t.Fatalf("Open of a pre-extent manifest: %v, want the no-extents refusal", err)
	}
}

// TestPutRefusesDuplicateAndBadNames still holds under extents.
func TestExtentPutValidation(t *testing.T) {
	s := newExtStore(t, "rs-9-6", 6)
	if err := s.Put("f", randomFile(t, blockSize, 233)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("f", nil); err == nil {
		t.Fatal("duplicate put accepted")
	}
	if err := s.Put("a/b", nil); err == nil {
		t.Fatal("path-y name accepted")
	}
}

// FuzzBlockName: for any file name a store accepts — dots, a trailing
// .x3, .g1 or .heal7, glob metacharacters — and either naming style,
// blockName → parseBlockName is the identity on (name, ext, gen,
// stripe, symbol), so two different replicas never share a path and the
// recovery sweep never takes one file's block for another's; and no
// block name reads as a heal temp, nor a heal temp as a block.
func FuzzBlockName(f *testing.F) {
	f.Add(false, "a.g1", 0, 0, 0, 0, "a", 0, 1, 0, 0)
	f.Add(true, "a.x0", 0, 0, 1, 2, "a", 0, 0, 1, 2)
	f.Add(false, "a.x0", 0, 0, 1, 2, "a", 0, 0, 1, 2)
	f.Add(true, "f.0.1", 2, 3, 4, 5, "f", 0, 1, 2, 3)
	f.Add(false, "x.heal7", 0, 0, 7, 0, "x.heal", 0, 0, 7, 0)
	f.Add(true, "*?[a-z].x3.g2", 3, 2, 0, 0, "*?[a-z]", 3, 2, 0, 0)
	f.Fuzz(func(t *testing.T, extPaths bool, n1 string, e1, g1, st1, sy1 int, n2 string, e2, g2, st2, sy2 int) {
		type replica struct {
			name                  string
			ext, gen, stripe, sym int
		}
		var paths [2]string
		in := [2]replica{{n1, e1, g1, st1, sy1}, {n2, e2, g2, st2, sy2}}
		for i, r := range in {
			if r.name == "" || filepath.Base(r.name) != r.name || min(r.ext, r.gen, r.stripe, r.sym) < 0 {
				t.Skip() // checkNewFile refuses the name; the store never counts below 0
			}
			if !extPaths {
				r.ext, in[i].ext = 0, 0 // flat names are single-extent files'
			}
			paths[i] = blockName(r.name, extPaths, r.ext, r.gen, r.stripe, r.sym)
			name, ext, gen, stripe, sym, ok := parseBlockName(paths[i], extPaths)
			if got := (replica{name, ext, gen, stripe, sym}); !ok || got != r {
				t.Fatalf("%+v -> %q -> %+v, %v", r, paths[i], got, ok)
			}
			s := &Store{}
			if s.stale(0, paths[i]) {
				t.Fatalf("%q reads as a heal temp", paths[i])
			}
			for _, style := range []bool{false, true} {
				if _, _, _, _, _, ok := parseBlockName(paths[i]+healSuffix+"7", style); ok {
					t.Fatalf("the heal temp of %q parses as a block name", paths[i])
				}
			}
		}
		if in[0] != in[1] && paths[0] == paths[1] {
			t.Fatalf("%+v and %+v share the path %q", in[0], in[1], paths[0])
		}
	})
}
