package hdfsraid

import (
	"bytes"
	"errors"
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

// assertNoStagedBlocks fails if any .tc block survives under root.
func assertNoStagedBlocks(t *testing.T, root string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(root, "node-*", "*"+tmpSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("staged blocks left after recovery: %v", matches)
	}
}

// assertRecovered reopens the store, which runs the journal recovery
// pass, and checks the invariant the journal exists to provide: the
// file is on exactly one code, byte-identical, with a healthy block
// inventory, no journal record, and no staged residue.
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
	fsck, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !fsck.Healthy() {
		t.Fatalf("store unhealthy after recovery: %+v", fsck)
	}
	if len(s.manifest.Queue) != 0 {
		t.Fatalf("journal not cleared: %+v", s.manifest.Queue)
	}
	assertNoStagedBlocks(t, dir)
	return s
}

// transcodeKillPoints is the kill-point table of an rs-9-6 -> pentagon
// move: every stage of the journal state machine a process can die in.
var transcodeKillPoints = []struct {
	point    string // where the process "dies"
	wantCode string // code the file must be on after recovery
	replayed bool   // whether recovery rolls forward
}{
	// Crash after staging but before the intent record exists:
	// recovery knows nothing of the move, sweeps the orphan .tc
	// blocks, and the file stays cold.
	{point: "staged", wantCode: "rs-9-6", replayed: false},
	// Crash with the intent journaled and all staged blocks
	// durable: recovery rolls the move forward.
	{point: "intent", wantCode: "pentagon", replayed: true},
	// Crash mid-swap — old replicas partially deleted, one staged
	// block already renamed: forward is the only safe direction.
	{point: "midswap", wantCode: "pentagon", replayed: true},
	// Crash after the full swap, before the manifest commit.
	{point: "swapped", wantCode: "pentagon", replayed: true},
}

// TestTranscodeKillPoints crashes a transcode between every stage of
// the journal state machine and checks that reopening the store
// replays or rolls back to a consistent, byte-identical file.
func TestTranscodeKillPoints(t *testing.T) {
	for _, tc := range transcodeKillPoints {
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
			s2 := assertRecovered(t, dir, want, tc.wantCode)
			rec := s2.LastRecovery()
			if tc.replayed && rec.Replayed != 1 {
				t.Fatalf("recovery = %+v, want a replay", rec)
			}
			if !tc.replayed && (rec.Replayed != 0 || rec.OrphanBlocks == 0) {
				t.Fatalf("recovery = %+v, want an orphan sweep", rec)
			}
			if rec.MissingStaged != 0 {
				t.Fatalf("recovery lost staged blocks: %+v", rec)
			}
		})
	}
}

// TestTranscodeKillPointsDemote runs the mid-swap kill on the demote
// direction (wide hot code back to narrow RS), where old and new block
// paths overlap heavily.
func TestTranscodeKillPointsDemote(t *testing.T) {
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
	killAt(s, "midswap")
	if _, err := s.Transcode("f", "rs-9-6"); !errors.Is(err, errKilled) {
		t.Fatalf("Transcode error = %v, want simulated crash", err)
	}
	assertRecovered(t, dir, want, "rs-9-6")
}

// TestRecoveryRollsBackDamagedStage crashes after the intent record
// but loses a staged block before recovery runs: rolling forward is
// impossible, so recovery must fall back to the intact old layout.
func TestRecoveryRollsBackDamagedStage(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "rs-9-6", blockSize)
	if err != nil {
		t.Fatal(err)
	}
	want := randomFile(t, 12*blockSize, 62)
	if err := s.Put("f", want); err != nil {
		t.Fatal(err)
	}
	killAt(s, "intent")
	if _, err := s.Transcode("f", "pentagon"); !errors.Is(err, errKilled) {
		t.Fatalf("Transcode error = %v, want simulated crash", err)
	}
	// Lose one staged block between the crash and the restart.
	matches, err := filepath.Glob(filepath.Join(dir, "node-*", "*"+tmpSuffix))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no staged blocks on disk (err=%v)", err)
	}
	if err := os.Remove(matches[0]); err != nil {
		t.Fatal(err)
	}
	s2 := assertRecovered(t, dir, want, "rs-9-6")
	if rec := s2.LastRecovery(); rec.RolledBack != 1 {
		t.Fatalf("recovery = %+v, want a rollback", rec)
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
	killAt(s, "midswap")
	if _, err := s.Transcode("f", "pentagon"); !errors.Is(err, errKilled) {
		t.Fatal("expected simulated crash")
	}
	first := assertRecovered(t, dir, want, "pentagon")
	if !first.LastRecovery().Acted() {
		t.Fatalf("first recovery did nothing: %+v", first.LastRecovery())
	}
	second := assertRecovered(t, dir, want, "pentagon")
	if second.LastRecovery().Acted() {
		t.Fatalf("second recovery acted again: %+v", second.LastRecovery())
	}
}

// TestTranscodeRefusesPendingJournal: a transcode that failed between
// journaling and committing leaves its journal entry as the only
// recovery map for that file; a later transcode of the SAME file must
// refuse to stage over it until Recover has run — while moves of other
// files proceed, since the queue holds independent entries.
func TestTranscodeRefusesPendingJournal(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "rs-9-6", blockSize)
	if err != nil {
		t.Fatal(err)
	}
	want := randomFile(t, 9*blockSize, 66)
	wantG := randomFile(t, 6*blockSize, 67)
	if err := s.Put("f", want); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("g", wantG); err != nil {
		t.Fatal(err)
	}
	killAt(s, "midswap") // f's swap "fails" with its journal record live
	if _, err := s.Transcode("f", "pentagon"); !errors.Is(err, errKilled) {
		t.Fatal("expected simulated crash")
	}
	s.killHook = nil
	// The same file is frozen until recovery...
	if _, err := s.Transcode("f", "2-rep"); err == nil || !strings.Contains(err.Error(), "pending") {
		t.Fatalf("transcode over a pending journal entry: err = %v", err)
	}
	// ...but a distinct file's move is not blocked by f's entry.
	if _, err := s.Transcode("g", "pentagon"); err != nil {
		t.Fatalf("independent transcode blocked by pending journal: %v", err)
	}
	if rec, err := s.Recover(); err != nil || rec.Replayed != 1 {
		t.Fatalf("recover = %+v, %v", rec, err)
	}
	if _, err := s.Transcode("f", "2-rep"); err != nil {
		t.Fatalf("transcode after recover: %v", err)
	}
	for name, data := range map[string][]byte{"f": want, "g": wantG} {
		got, err := s.Get(name)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s wrong after pending-journal dance (%v)", name, err)
		}
	}
	if fsck, err := s.Fsck(); err != nil || !fsck.Healthy() {
		t.Fatalf("unhealthy: %+v, %v", fsck, err)
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

// TestJournalPersistedBeforeSwap inspects the on-disk manifest log at
// the intent kill point: the journal record must already be durable,
// with the staged-block list recovery needs.
func TestJournalPersistedBeforeSwap(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "rs-9-6", blockSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("f", randomFile(t, 9*blockSize, 65)); err != nil {
		t.Fatal(err)
	}
	killAt(s, "intent")
	if _, err := s.Transcode("f", "pentagon"); !errors.Is(err, errKilled) {
		t.Fatal("expected simulated crash")
	}
	raw, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"op":"intent"`, `"from":"rs-9-6"`, `"to":"pentagon"`, `"staged"`} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("durable manifest log missing %s:\n%q", want, raw)
		}
	}
}
