package hdfsraid

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
)

// errKilled simulates process death at a kill point: the operation
// aborts with no cleanup, exactly like a crash.
var errKilled = errors.New("simulated crash")

// killAt arms the store's crash hook to die the first time the named
// point is reached.
func killAt(s *Store, point string) {
	s.killHook = func(p string) error {
		if p == point {
			return errKilled
		}
		return nil
	}
}

// assertRecovered reopens the store, which runs the recovery sweep, and
// checks the invariant a killed move must leave: the file is on exactly
// one code, byte-identical, under exactly one generation.
func assertRecovered(t *testing.T, dir string, want []byte, wantCode string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if code, ok := s.FileCode("f"); !ok || code != wantCode {
		t.Fatalf("recovered code = %q, %v; want %q", code, ok, wantCode)
	}
	got, err := s.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recovered bytes differ")
	}
	assertExactLayout(t, s)
	return s
}

// moveKillPoints are the two places a process can die inside an extent
// move with something on disk to show for it.
var moveKillPoints = []struct {
	point string
	moved bool // the record was durable: the extent is on the target code
}{
	// The whole next generation written, no record: the extent never
	// left its code and the sweep removes what the move wrote.
	{point: "staged", moved: false},
	// The record durable, nothing reclaimed: the extent is on the new
	// code and the sweep removes the generation it left.
	{point: "moved", moved: true},
}

// movedCode picks the code an extent is on after a move from -> to was
// killed at a point where the record was or was not durable.
func movedCode(moved bool, from, to string) string {
	if moved {
		return to
	}
	return from
}

// blocksOn is the number of block replicas blocks data blocks occupy
// under the named code.
func blocksOn(t *testing.T, s *Store, codeName string, blocks int) int {
	t.Helper()
	cc, err := s.codecByName(codeName)
	if err != nil {
		t.Fatal(err)
	}
	return layoutBlocks(cc, blocks)
}

// TestTranscodeKillPoints crashes a move of a whole-file extent (flat
// block names, a shortened tail stripe) at both kill points and checks
// that reopening the store leaves a consistent, byte-identical file and
// sweeps exactly the generation the manifest does not name.
func TestTranscodeKillPoints(t *testing.T) {
	for _, tc := range moveKillPoints {
		t.Run(tc.point, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Create(dir, "rs-9-6", blockSize)
			if err != nil {
				t.Fatal(err)
			}
			want := randomFile(t, 12*blockSize+13, 60)
			if err := s.Put("f", want); err != nil {
				t.Fatal(err)
			}
			killAt(s, tc.point)
			if _, err := s.Transcode("f", "pentagon"); !errors.Is(err, errKilled) {
				t.Fatalf("Transcode error = %v, want simulated crash", err)
			}
			s2 := assertRecovered(t, dir, want, movedCode(tc.moved, "rs-9-6", "pentagon"))
			stale := blocksOn(t, s2, movedCode(!tc.moved, "rs-9-6", "pentagon"), 13)
			if rec := s2.LastRecovery(); rec.Orphans != stale || rec.Skipped {
				t.Fatalf("recovery = %+v, want the other generation's %d blocks swept", rec, stale)
			}
		})
	}
}

// TestTranscodeKillPointsDemote runs both kills on the demote direction
// (wide hot code back to narrow RS) of an extent that has moved before,
// so the generations in play are 1 and 2.
func TestTranscodeKillPointsDemote(t *testing.T) {
	for _, tc := range moveKillPoints {
		dir := t.TempDir()
		s, err := Create(dir, "rs-9-6", blockSize)
		if err != nil {
			t.Fatal(err)
		}
		want := randomFile(t, 9*blockSize, 61)
		if err := s.Put("f", want); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Transcode("f", "heptagon-local"); err != nil {
			t.Fatal(err)
		}
		killAt(s, tc.point)
		if _, err := s.Transcode("f", "rs-9-6"); !errors.Is(err, errKilled) {
			t.Fatalf("%s: Transcode error = %v, want simulated crash", tc.point, err)
		}
		s2 := assertRecovered(t, dir, want, movedCode(tc.moved, "heptagon-local", "rs-9-6"))
		if fi, _ := s2.Info("f"); fi.Extents[0].Gen != map[bool]int{false: 1, true: 2}[tc.moved] {
			t.Fatalf("%s: extent at generation %d", tc.point, fi.Extents[0].Gen)
		}
	}
}

// TestRecoveryIdempotent reopens a recovered store again: the second
// pass must find nothing to do.
func TestRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "rs-9-6", blockSize)
	if err != nil {
		t.Fatal(err)
	}
	want := randomFile(t, 10*blockSize, 63)
	if err := s.Put("f", want); err != nil {
		t.Fatal(err)
	}
	killAt(s, "moved")
	if _, err := s.Transcode("f", "pentagon"); !errors.Is(err, errKilled) {
		t.Fatal("expected simulated crash")
	}
	first := assertRecovered(t, dir, want, "pentagon")
	if first.LastRecovery().Orphans == 0 {
		t.Fatalf("first recovery did nothing: %+v", first.LastRecovery())
	}
	second := assertRecovered(t, dir, want, "pentagon")
	if second.LastRecovery() != (RecoverReport{}) {
		t.Fatalf("second recovery acted again: %+v", second.LastRecovery())
	}
}

// TestManifestSaveAtomic checks that the manifest snapshot is replaced
// (at a checkpoint) through durable.WriteFile: a leftover temp file from a crashed save never
// shadows or corrupts the real manifest, a committed save fsyncs the
// file and its directory, and a failed one changes nothing.
func TestManifestSaveAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "rs-9-6", blockSize)
	if err != nil {
		t.Fatal(err)
	}
	want := randomFile(t, 6*blockSize, 64)
	if err := s.Put("f", want); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-save: a torn temp file beside the manifest.
	if err := os.WriteFile(filepath.Join(dir, manifestName+".tmp"), []byte(`{"code": "rs-`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("bytes differ after torn manifest save")
	}
	// The next save commits over the residue through durable.WriteFile:
	// the file's fsync plus the directory's (the one that makes the
	// rename itself durable), and no temp file left behind.
	tmp := filepath.Join(dir, manifestName+".tmp")
	before := durable.Syncs()
	if err := s2.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := durable.Syncs() - before; got != 2 {
		t.Fatalf("manifest save issued %d fsyncs, want 2 (file + directory)", got)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file left after a committed save: %v", err)
	}
	// A save that fails before its rename leaves the committed manifest
	// byte for byte as it was.
	committed, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	s2.manifest.Files["phantom"] = FileInfo{}
	if err := s2.checkpoint(); err == nil {
		t.Fatal("save succeeded with an unwritable temp path")
	}
	if after, err := os.ReadFile(filepath.Join(dir, manifestName)); err != nil || !bytes.Equal(after, committed) {
		t.Fatalf("failed save changed the committed manifest (err %v)", err)
	}
}

// TestMoveRecordDurableBeforeReclaim inspects the disk at the moved
// kill point: the one record a move writes is already durable, and not
// one block of the generation it supersedes has been touched.
func TestMoveRecordDurableBeforeReclaim(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "rs-9-6", blockSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("f", randomFile(t, 9*blockSize, 65)); err != nil {
		t.Fatal(err)
	}
	before := blockFiles(t, s)
	killAt(s, "moved")
	if _, err := s.Transcode("f", "pentagon"); !errors.Is(err, errKilled) {
		t.Fatal("expected simulated crash")
	}
	raw := string(readFile(t, filepath.Join(dir, logName)))
	if want := `{"op":"move","name":"f","code":"pentagon","stripes":1,"gen":1}`; !strings.Contains(raw, want) {
		t.Fatalf("durable manifest log missing %s:\n%q", want, raw)
	}
	after := blockFiles(t, s)
	for rel, frame := range before {
		if after[rel] != frame {
			t.Fatalf("%s of the superseded generation changed before the move returned", rel)
		}
	}
	if want := len(before) + blocksOn(t, s, "pentagon", 9); len(after) != want {
		t.Fatalf("%d block files at the kill point, want both generations' %d", len(after), want)
	}
}

// TestOpenRefusesPendingLegacyIntent: a root whose manifest carries a
// move the release before layout generations journaled and never
// finished — old and new layout share block paths, and only that
// release's recovery can tell them apart — is refused, in the snapshot
// or in the log; the same journal run to its commit replays as a change
// of code at generation 0, which is what those moves left on disk.
func TestOpenRefusesPendingLegacyIntent(t *testing.T) {
	const pending = "store has a pre-generation move pending; finish it with the previous release's recovery"
	intent := `{"op":"intent","intent":{"file":"f","from":"rs-9-6","to":"pentagon","length":36864,"old_stripes":2,"new_stripes":1,"state":"swapping","staged":["node-00/f.0.0"]}}`
	build := func(t *testing.T) (string, *Store) {
		dir := t.TempDir()
		s, err := Create(dir, "rs-9-6", blockSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put("f", randomFile(t, 9*blockSize, 68)); err != nil {
			t.Fatal(err)
		}
		return dir, s
	}
	t.Run("log", func(t *testing.T) {
		dir, s := build(t)
		if err := s.log.Append([]byte(intent), []byte(`{"op":"swapping","name":"f"}`)); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), pending) {
			t.Fatalf("Open with a pending intent in the log: %v", err)
		}
		// The journal's last record settles it: a move the old release
		// committed is the extent on its new code, at generation 0.
		if err := s.log.Append([]byte(`{"op":"commit","name":"f"}`)); err != nil {
			t.Fatal(err)
		}
		s2, files := reopen(t, dir)
		if e := files["f"].Extents[0]; e.Code != "pentagon" || e.Stripes != 1 || e.Gen != 0 || len(s2.manifest.Queue) != 0 {
			t.Fatalf("replayed legacy move left extent %+v, queue %v", e, s2.manifest.Queue)
		}
	})
	t.Run("snapshot", func(t *testing.T) {
		dir, s := build(t)
		if err := s.checkpoint(); err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(readFile(t, filepath.Join(dir, manifestName)), &m); err != nil {
			t.Fatal(err)
		}
		m["transcode_queue"] = []any{map[string]any{"file": "f", "from": "rs-9-6", "to": "pentagon",
			"length": 36864, "old_stripes": 2, "new_stripes": 1, "state": "staged", "staged": []string{"node-00/f.0.0"}}}
		raw, _ := json.MarshalIndent(m, "", "  ")
		if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), pending) {
			t.Fatalf("Open with a pending intent in the snapshot: %v", err)
		}
		if !bytes.Equal(readFile(t, filepath.Join(dir, manifestName)), raw) {
			t.Fatal("the refused Open rewrote manifest.json")
		}
	})
}

// TestGenZeroNamesUnchanged: a file never moved keeps the block names
// every earlier release gave it — spelled out here the way those
// releases' blockPath and extentBlockPath formatted them — so a store
// they wrote needs no rename, and a fresh one is byte-identical to
// theirs. Only a moved extent's blocks carry a generation.
func TestGenZeroNamesUnchanged(t *testing.T) {
	for _, extBlocks := range []int{0, 6} {
		s, err := CreateExt(t.TempDir(), "rs-9-6", blockSize, extBlocks)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"plain", "dotted.g1", "a.x0.0.0"} {
			if err := s.Put(name, randomFile(t, 15*blockSize+5, 69)); err != nil {
				t.Fatal(err)
			}
		}
		parent := func(v int, name string, ext, stripe, sym int) string {
			if extBlocks == 0 {
				return fmt.Sprintf("node-%02d/%s.%d.%d", v, name, stripe, sym)
			}
			return fmt.Sprintf("node-%02d/%s.x%d.%d.%d", v, name, ext, stripe, sym)
		}
		check := func(step string, moved string) {
			t.Helper()
			want := map[string]bool{}
			for _, name := range s.Files() {
				fi, _ := s.Info(name)
				for ext := range fi.Extents {
					if err := s.forEachReplica(name, fi, ext, func(r blockRef, v int) error {
						rel := parent(v, name, ext, r.stripe, r.sym)
						if name == moved && ext == 0 {
							rel += ".g1"
						}
						want[rel] = true
						return nil
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
			got := blockFiles(t, s)
			for rel := range got {
				if !want[rel] {
					t.Errorf("extentBlocks %d, %s: %s on disk, which the parent's naming does not produce", extBlocks, step, rel)
				}
			}
			if len(got) != len(want) {
				t.Errorf("extentBlocks %d, %s: %d block files, parent naming expects %d", extBlocks, step, len(got), len(want))
			}
		}
		check("fresh", "")
		if _, err := s.TranscodeExtent("plain", 0, "pentagon"); err != nil {
			t.Fatal(err)
		}
		check("after moving plain's first extent", "plain")
	}
}
