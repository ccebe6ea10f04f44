package hdfsraid

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/durable"
)

// closeStore releases a handle's descriptors, so tests that open a root
// hundreds of times do not wait on the collector for them.
func closeStore(s *Store) {
	s.log.Close()
	s.lockFile.Close()
}

// reopen opens dir and returns the handle with its file table.
func reopen(t *testing.T, dir string) (*Store, map[string]FileInfo) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeStore(s) })
	return s, s.manifest.Files
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCommitFailureNeverLies fails the manifest commit of each mutation
// (the log's descriptor is closed under it) and checks that memory was
// not touched: a Put that returned an error is not served, not listed
// and not in the way of its own retry; a Delete that failed still
// serves the file; a move whose record could not be written left the
// extent where it was (and the generation it wrote for a retry to
// overwrite or a sweep to take). At the
// parent commit the failed Put stayed in the in-memory table until
// restart.
func TestCommitFailureNeverLies(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "rs-9-6", blockSize)
	if err != nil {
		t.Fatal(err)
	}
	kept, data := randomFile(t, 3*blockSize, 700), randomFile(t, 2*blockSize+5, 701)
	if err := s.Put("kept", kept); err != nil {
		t.Fatal(err)
	}
	appends := s.Obs().Snapshot().Counters[counterNames[cLogAppends]]
	s.log.Close()
	if err := s.Put("f", data); err == nil {
		t.Fatal("Put succeeded without a manifest log")
	}
	if _, err := s.Get("f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of a Put that failed: %v, want not found", err)
	}
	if _, err := s.Delete("kept"); err == nil {
		t.Fatal("Delete succeeded without a manifest log")
	}
	// A move's refresh reads the log, so lose it only once the blocks
	// are written: the move record is the first write that fails.
	offset := s.log.Size()
	reopenLog := func() {
		t.Helper()
		s.log, err = durable.OpenSnapLog(filepath.Join(dir, manifestName), filepath.Join(dir, logName))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.load(); err != nil || s.log.Size() != offset {
			t.Fatalf("log after the failed commits: offset %d, %v; want %d", s.log.Size(), err, offset)
		}
	}
	reopenLog()
	s.killHook = func(point string) error {
		if point == "staged" {
			s.log.Close()
		}
		return nil
	}
	if _, err := s.TranscodeExtent("kept", 0, "pentagon"); err == nil {
		t.Fatal("TranscodeExtent succeeded without a manifest log")
	}
	s.killHook = nil
	if got := s.Files(); fmt.Sprint(got) != "[kept]" || s.manifest.Files["kept"].Extents[0] != (Extent{Blocks: 3, Stripes: 1}) {
		t.Fatalf("after three failed commits: files %v, kept = %+v", got, s.manifest.Files["kept"])
	}
	if got := s.Obs().Snapshot().Counters[counterNames[cLogAppends]]; got != appends {
		t.Fatalf("failed commits counted as %d appends", got-appends)
	}
	// The generation the record named stays on disk: had the failed
	// append reached it after all, a restart's table would point there.
	if next, _ := filepath.Glob(filepath.Join(dir, "node-*", "kept.*.g1")); len(next) != blocksOn(t, s, "pentagon", 3) {
		t.Fatalf("%d blocks of the generation the failed move's record named, want all kept", len(next))
	}
	if got, err := s.Get("kept"); err != nil || !bytes.Equal(got, kept) {
		t.Fatalf("kept file after the failed Delete and move: %v", err)
	}
	// The log comes back (same offset: nothing was appended): the retry
	// of each operation succeeds, and a restart agrees.
	reopenLog()
	if err := s.Put("f", data); err != nil {
		t.Fatalf("retried Put: %v", err)
	}
	if _, err := s.TranscodeExtent("kept", 0, "pentagon"); err != nil {
		t.Fatalf("retried move: %v", err)
	}
	if _, err := s.Delete("kept"); err != nil {
		t.Fatalf("retried Delete: %v", err)
	}
	s2, files := reopen(t, dir)
	if !reflect.DeepEqual(files, s.manifest.Files) || len(files) != 1 {
		t.Fatalf("restart sees %v, the live handle %v", files, s.manifest.Files)
	}
	if got, err := s2.Get("f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("f after restart: %v", err)
	}
}

// churnMoved is the clock time churn's tiering move records for f2's
// extent 0.
const churnMoved = 42.5

// churn applies a fixed sequence of every record type to a new store
// and returns it: puts, a delete, committed moves — a tiering move at
// churnMoved, then a manual one of the same extent, whose record must be
// the bytes it was before moves carried a time and must keep the
// extent's Moved — and a move killed before its record, swept by
// recovery.
func churn(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := CreateExt(dir, "rs-9-6", blockSize, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, blocks := range []int{2, 7, 20} {
		if err := s.Put(fmt.Sprintf("f%d", i), randomFile(t, blocks*blockSize-i, int64(710+i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Delete("f0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TranscodeExtentAt("f2", 0, "pentagon", churnMoved); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TranscodeExtent("f2", 1, "pentagon"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TranscodeExtent("f2", 0, "rs-9-6"); err != nil {
		t.Fatal(err)
	}
	if log := readFile(t, filepath.Join(dir, logName)); !bytes.HasSuffix(log, []byte(`{"op":"move","name":"f2","code":"rs-9-6","stripes":2,"gen":2}`)) ||
		bytes.Count(log, []byte(`"t":`)) != 1 {
		t.Fatalf("move records: want one timed, the manual ones untimed and unchanged:\n%q", log)
	}
	assertMoved(t, s.manifest.Files)
	killAt(s, "staged")
	if _, err := s.TranscodeExtent("f1", 0, "pentagon"); !errors.Is(err, errKilled) {
		t.Fatalf("move of f1: %v, want the simulated crash", err)
	}
	s.killHook = nil
	if rec, err := s.Recover(); err != nil || rec.Orphans != blocksOn(t, s, "pentagon", 7) {
		t.Fatalf("recover = %+v, %v; want f1's unrecorded generation swept", rec, err)
	}
	return s
}

// assertMoved checks the dwell churn left in a table: f2's extent 0
// keeps its tiering move's time through the manual move after it, and
// the extent only ever moved by hand has none.
func assertMoved(t *testing.T, files map[string]FileInfo) {
	t.Helper()
	if exts := files["f2"].Extents; exts[0].Moved != churnMoved || exts[1].Moved != 0 {
		t.Fatalf("f2 extents %+v: want Moved %v on extent 0 only", exts, churnMoved)
	}
}

// TestManifestLogTornTail: with the log cut at every byte of its last
// record, or one bit of that record flipped, Open yields exactly the
// table before that operation — every earlier record applied — without
// touching the log, and the next commit lands right after the valid
// prefix.
func TestManifestLogTornTail(t *testing.T) {
	dir := t.TempDir()
	s := churn(t, dir)
	before := map[string]FileInfo{}
	for name, fi := range s.manifest.Files {
		before[name] = fi
	}
	prefix := s.log.Size()
	if err := s.Put("last", randomFile(t, blockSize, 720)); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, logName)
	whole := readFile(t, logPath)
	var damaged [][]byte
	for cut := prefix; cut < int64(len(whole)); cut++ {
		damaged = append(damaged, whole[:cut])
	}
	for b := prefix; b < int64(len(whole)); b++ {
		flipped := bytes.Clone(whole)
		flipped[b] ^= 1 << (b % 8)
		damaged = append(damaged, flipped)
	}
	for i, content := range damaged {
		if err := os.WriteFile(logPath, content, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, files := reopen(t, dir)
		if !reflect.DeepEqual(files, before) {
			t.Fatalf("damage %d: Open sees %v, want the table before the last op %v", i, files, before)
		}
		if after := readFile(t, logPath); !bytes.Equal(after, content) {
			t.Fatalf("damage %d: Open changed the log", i)
		}
		if i%16 != 0 {
			closeStore(s2)
			continue
		}
		if _, err := s2.Delete("f1"); err != nil {
			t.Fatal(err)
		}
		after := readFile(t, logPath)
		if !bytes.Equal(after[:prefix], whole[:prefix]) || int64(len(after)) != s2.log.Size() {
			t.Fatalf("damage %d: the next commit left %d log bytes, offset %d, prefix intact %v",
				i, len(after), s2.log.Size(), bytes.Equal(after[:prefix], whole[:prefix]))
		}
		closeStore(s2)
		s3, files := reopen(t, dir)
		if _, ok := files["f1"]; ok || len(files) != len(before)-1 {
			t.Fatalf("damage %d: after the next commit and a restart: %v", i, files)
		}
		closeStore(s3)
	}
}

// TestCheckpointKillPoints leaves the root as a checkpoint that crashed
// before its snapshot was renamed into place (the torn temp file beside
// the old snapshot and the full log), and after it but before the old
// log was emptied (the new snapshot beside the old log): Open yields the
// same table both ways — each extent's Moved included, replayed from the
// log the first way and read from the snapshot the second — the stale
// log is never replayed onto the newer snapshot, and the next commit
// sweeps it.
func TestCheckpointKillPoints(t *testing.T) {
	for _, point := range []string{"before the rename", "before the log is emptied"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			s := churn(t, dir)
			want := s.manifest.Files
			wantGen := s.manifest.LogGen
			if point == "before the rename" {
				if err := os.WriteFile(filepath.Join(dir, manifestName+".tmp"), []byte(`{"code": "rs-`), 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				oldLog := readFile(t, filepath.Join(dir, logName))
				if err := s.checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, logName), oldLog, 0o644); err != nil {
					t.Fatal(err)
				}
				wantGen++
			}
			staleLog := readFile(t, filepath.Join(dir, logName))
			s2, files := reopen(t, dir)
			if !reflect.DeepEqual(files, want) || s2.manifest.LogGen != wantGen {
				t.Fatalf("after a crash %s: generation %d, table %v; want %d, %v",
					point, s2.manifest.LogGen, files, wantGen, want)
			}
			assertMoved(t, files)
			if !bytes.Equal(readFile(t, filepath.Join(dir, logName)), staleLog) {
				t.Fatal("Open rewrote the log")
			}
			for name := range want {
				if _, err := s2.Get(name); err != nil {
					t.Fatalf("Get %s: %v", name, err)
				}
			}
			if err := s2.Put("next", randomFile(t, blockSize, 730)); err != nil {
				t.Fatal(err)
			}
			if point != "before the rename" {
				// header + one put: the older generation's records are gone.
				if log := readFile(t, filepath.Join(dir, logName)); len(log) >= len(staleLog) || bytes.Contains(log, []byte(`"op":"del"`)) {
					t.Fatalf("stale log not swept by the next commit: %d bytes (was %d)", len(log), len(staleLog))
				}
			}
			_, files = reopen(t, dir)
			if _, ok := files["next"]; !ok || len(files) != len(want)+1 {
				t.Fatalf("after the next commit and a restart: %v", files)
			}
		})
	}
}

// TestTwoHandlesOneRoot: two Store handles on one root, as two
// processes. B's committed move reaches A at A's next flock acquisition
// by replaying only the records B appended — the snapshot is not read
// again, so the table's entries keep their identities — and a
// checkpoint by B (a new snapshot, an emptied log) reaches A through a
// full load, which renumbers them. Meanwhile a third handle that only reads — what
// hdfscli fsck or kill is beside a live server — changes neither file,
// even with a commit in flight at the log's tail.
func TestTwoHandlesOneRoot(t *testing.T) {
	dir := t.TempDir()
	a, err := Create(dir, "rs-9-6", blockSize)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, name := range []string{"f", "g", "h"} {
		files[name] = randomFile(t, 7*blockSize, int64(740+len(files)))
		if err := a.Put(name, files[name]); err != nil {
			t.Fatal(err)
		}
	}
	b, _ := reopen(t, dir)
	if _, err := b.Transcode("f", "pentagon"); err != nil {
		t.Fatal(err)
	}
	if code, _ := a.FileCode("f"); code != "rs-9-6" {
		t.Fatalf("A saw B's move before taking the flock: %q", code)
	}
	id, offset := a.manifest.ids["h"], a.log.Size()
	if _, err := a.Transcode("g", "pentagon"); err != nil {
		t.Fatal(err)
	}
	if code, _ := a.FileCode("f"); code != "pentagon" {
		t.Fatalf("A after its own move still sees f on %q", code)
	}
	if a.manifest.ids["h"] != id || a.log.Size() <= offset {
		t.Fatal("A caught up by loading the snapshot again, not by replaying the tail")
	}

	// A reader beside them, with half a frame at the tail.
	logPath, snapPath := filepath.Join(dir, logName), filepath.Join(dir, manifestName)
	tail, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tail.Write([]byte{90, 0, 0, 0, 1, 2, 3, 4, '{', '"'}); err != nil {
		t.Fatal(err)
	}
	tail.Close()
	log, snap := readFile(t, logPath), readFile(t, snapPath)
	c, _ := reopen(t, dir)
	if rep, err := c.Fsck(); err != nil || !rep.Healthy() {
		t.Fatalf("reader's fsck = %+v, %v", rep, err)
	}
	if err := c.KillNode(0); err != nil {
		t.Fatal(err)
	}
	for name, data := range files {
		if got, err := c.Get(name); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("reader's Get %s: %v", name, err)
		}
	}
	if !bytes.Equal(readFile(t, logPath), log) || !bytes.Equal(readFile(t, snapPath), snap) {
		t.Fatal("a handle that only read changed the manifest's files")
	}
	if _, err := a.Repair([]int{0}); err != nil {
		t.Fatal(err)
	}

	// B folds the log (A's records included, once B has caught up) and
	// moves on in the new generation; A must follow.
	if _, err := b.Transcode("h", "pentagon"); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	err = b.checkpoint()
	b.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Transcode("h", "rs-9-6"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Transcode("g", "rs-9-6"); err != nil {
		t.Fatal(err)
	}
	if a.manifest.ids["h"] == id || a.manifest.LogGen != b.manifest.LogGen {
		t.Fatalf("A did not follow B's checkpoint: generation %d vs %d", a.manifest.LogGen, b.manifest.LogGen)
	}
	d, final := reopen(t, dir)
	for _, s := range []*Store{a, d} {
		for name, want := range map[string]string{"f": "pentagon", "g": "rs-9-6", "h": "rs-9-6"} {
			if code, _ := s.FileCode(name); code != want {
				t.Fatalf("%s on %q, want %q", name, code, want)
			}
			if got, err := s.Get(name); err != nil || !bytes.Equal(got, files[name]) {
				t.Fatalf("Get %s: %v", name, err)
			}
		}
	}
	if !reflect.DeepEqual(final, a.manifest.Files) {
		t.Fatalf("A's table %v differs from a fresh Open's %v", a.manifest.Files, final)
	}
	if rep, err := d.Fsck(); err != nil || !rep.Healthy() {
		t.Fatalf("fsck = %+v, %v", rep, err)
	}
}

// TestParentWrittenStoreOpens: a root as the parent commit left it — a
// manifest.json whose extents carry no generation, one of them moved by
// that release's in-place swap (new code, the names every block has
// always had), the swap's four journal records still in manifest.log —
// opens, reads, scrubs and moves again byte-exactly with no migration
// step and no rewrite, and takes new commits.
func TestParentWrittenStoreOpens(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "rs-9-6", blockSize)
	if err != nil {
		t.Fatal(err)
	}
	f, g := randomFile(t, 9*blockSize+1, 750), randomFile(t, 2*blockSize, 751)
	// What the parent's move of f to pentagon left: the pentagon layout
	// under generation-0 names. Written here by ingesting f on a pentagon
	// store sharing the node directories.
	p, err := Create(t.TempDir(), "pentagon", blockSize)
	if err != nil {
		t.Fatal(err)
	}
	p.root = dir
	if err := p.Put("f", f); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("g", g); err != nil {
		t.Fatal(err)
	}
	if err := s.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.log.Append(
		[]byte(`{"op":"put","name":"f","file":{"length":36865,"stripes":2,"extents":[{"start":0,"blocks":10,"stripes":2}]}}`),
		[]byte(`{"op":"intent","intent":{"file":"f","from":"rs-9-6","to":"pentagon","length":36865,"old_stripes":2,"new_stripes":2,"state":"staged","staged":["node-00/f.0.0"]}}`),
		[]byte(`{"op":"swapping","name":"f"}`), []byte(`{"op":"commit","name":"f"}`)); err != nil {
		t.Fatal(err)
	}
	snapshot, log := readFile(t, filepath.Join(dir, manifestName)), readFile(t, filepath.Join(dir, logName))
	if strings.Contains(string(snapshot), `"gen"`) {
		t.Fatalf("a never-moved table carries a generation:\n%s", snapshot)
	}
	before := blockFiles(t, s)
	s2 := assertRecovered(t, dir, f, "pentagon")
	if rec := s2.LastRecovery(); rec != (RecoverReport{}) {
		t.Fatalf("recovery = %+v, want nothing to do", rec)
	}
	if got, err := s2.Get("g"); err != nil || !bytes.Equal(got, g) {
		t.Fatalf("g: %v", err)
	}
	if rep, err := s2.Scrub(0); err != nil || !rep.Wrapped || rep.CorruptFound+rep.MissingFound != 0 {
		t.Fatalf("scrub = %+v, %v", rep, err)
	}
	if !reflect.DeepEqual(blockFiles(t, s2), before) ||
		!bytes.Equal(readFile(t, filepath.Join(dir, manifestName)), snapshot) ||
		!bytes.Equal(readFile(t, filepath.Join(dir, logName)), log) {
		t.Fatal("opening, reading and scrubbing a parent-written store rewrote it")
	}
	if _, err := s2.Transcode("f", "rs-9-6"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Delete("g"); err != nil {
		t.Fatal(err)
	}
	s3 := assertRecovered(t, dir, f, "rs-9-6")
	if got := s3.Files(); fmt.Sprint(got) != "[f]" {
		t.Fatalf("files after restart = %v", got)
	}
}

// FuzzManifestLogReplay feeds load arbitrary log bytes beside a fixed
// snapshot — raw, and (framed) with each line wrapped in a valid frame
// so the records themselves are reached: it must never panic, and a
// table it accepts must pass validateExtents entry by entry.
func FuzzManifestLogReplay(f *testing.F) {
	f.Add([]byte(`{"op":"gen","gen":2}`+"\n"+
		`{"op":"put","name":"n","file":{"length":8192,"stripes":1,"extents":[{"start":0,"blocks":2,"stripes":1}]}}`+"\n"+
		`{"op":"intent","intent":{"file":"n","from":"rs-9-6","to":"pentagon","length":8192,"old_stripes":1,"new_stripes":1,"state":"staged","staged":["node-00/n.0.0"]}}`+"\n"+
		`{"op":"swapping","name":"n"}`+"\n"+`{"op":"commit","name":"n"}`+"\n"+`{"op":"del","name":"f"}`), true)
	f.Add([]byte(`{"op":"gen","gen":2}`+"\n"+`{"op":"rollback","name":"f","ext":3}`), true)
	f.Add([]byte(`{"op":"gen","gen":2}`+"\n"+`{"op":"move","name":"f","code":"pentagon","stripes":1,"gen":1}`+"\n"+
		`{"op":"move","name":"f","stripes":2,"gen":2}`+"\n"+`{"op":"move","name":"f","ext":1,"code":"warp","stripes":7,"gen":-1}`), true)
	f.Add([]byte(`{"op":"gen","gen":2}`+"\n"+`{"op":"move","name":"f","code":"pentagon","stripes":1,"gen":1,"t":1e9}`+"\n"+
		`{"op":"move","name":"f","stripes":2,"gen":2,"t":-3}`), true)
	f.Add([]byte(`{"op":"put","name":"headless"}`), true)
	f.Add([]byte("\x14\x00\x00\x00\xde\xad\xbe\xef{\"op\":\"gen\",\"gen\":2}"), false)
	dir := f.TempDir()
	s, err := Create(dir, "rs-9-6", blockSize)
	if err != nil {
		f.Fatal(err)
	}
	// The snapshot under test: generation 2, holding f. The generation-1
	// log it replaced and a live generation-2 log are seeds too.
	for _, name := range []string{"f", "g"} {
		if err := s.Put(name, make([]byte, 7*blockSize)); err != nil {
			f.Fatal(err)
		}
		real, err := os.ReadFile(filepath.Join(dir, logName))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(real, false)
		if name == "f" {
			if err := s.checkpoint(); err != nil {
				f.Fatal(err)
			}
		}
	}
	log, err := durable.OpenLog(filepath.Join(dir, logName))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, framed bool) {
		log.Reset()
		if framed {
			if err := log.Append(bytes.Split(data, []byte("\n"))...); err != nil {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := s.load(); err != nil {
			return
		}
		for name, fi := range s.manifest.Files {
			if err := s.validateExtents(name, fi); err != nil {
				t.Fatalf("load accepted %q: %v", name, err)
			}
		}
	})
}
