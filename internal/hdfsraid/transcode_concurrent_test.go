package hdfsraid

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// putFiles stores n random files f0..f(n-1) and returns their bytes.
func putFiles(t *testing.T, s *Store, n, size int) map[string][]byte {
	t.Helper()
	want := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("f%d", i)
		data := randomFile(t, size, int64(100+i))
		if err := s.Put(name, data); err != nil {
			t.Fatal(err)
		}
		want[name] = data
	}
	return want
}

// TestTranscodeParallelDistinctFiles drives N simultaneous moves of
// distinct files (run under -race in CI): per-file locking must let
// them all proceed and land byte-identical on the new code.
func TestTranscodeParallelDistinctFiles(t *testing.T) {
	const n = 4
	s := newStore(t, "rs-9-6")
	want := putFiles(t, s, n, 12*blockSize+13)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = s.Transcode(fmt.Sprintf("f%d", i), "pentagon")
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
	}
	for name, data := range want {
		if code, _ := s.FileCode(name); code != "pentagon" {
			t.Fatalf("%s on %q after parallel moves", name, code)
		}
		got, err := s.Get(name)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s wrong after parallel moves (%v)", name, err)
		}
	}
	assertExactLayout(t, s)
}

// TestTranscodeOverlap proves two moves of distinct files genuinely
// overlap rather than serializing store-wide: move A parks at its
// "staged" kill point (the hook blocks instead of erroring) while move
// B runs to completion, then A resumes and completes too.
func TestTranscodeOverlap(t *testing.T) {
	s := newStore(t, "rs-9-6")
	want := putFiles(t, s, 2, 6*blockSize)
	entered := make(chan struct{})
	release := make(chan struct{})
	var first atomic.Bool
	s.killHook = func(p string) error {
		if p == "staged" && first.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		return nil
	}
	aDone := make(chan error, 1)
	go func() {
		_, err := s.Transcode("f0", "pentagon")
		aDone <- err
	}()
	<-entered // A is mid-move, its next generation written but not recorded
	if _, err := s.Transcode("f1", "pentagon"); err != nil {
		t.Fatalf("concurrent move blocked behind an in-flight move: %v", err)
	}
	close(release)
	if err := <-aDone; err != nil {
		t.Fatal(err)
	}
	for name, data := range want {
		if code, _ := s.FileCode(name); code != "pentagon" {
			t.Fatalf("%s on %q", name, code)
		}
		got, err := s.Get(name)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s wrong after overlapped moves (%v)", name, err)
		}
	}
}

// TestTranscodeParallelKillPoints crashes N in-flight moves of
// distinct files at the same kill point and checks that reopening the
// store settles every one of them: each file byte-identical on one
// code, and exactly the N generations the manifest does not name swept.
func TestTranscodeParallelKillPoints(t *testing.T) {
	const n = 3
	for _, tc := range moveKillPoints {
		t.Run(tc.point, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Create(dir, "rs-9-6", blockSize)
			if err != nil {
				t.Fatal(err)
			}
			want := putFiles(t, s, n, 9*blockSize+7)
			killAt(s, tc.point)
			var wg sync.WaitGroup
			errs := make([]error, n)
			for i := 0; i < n; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[i] = s.Transcode(fmt.Sprintf("f%d", i), "pentagon")
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if !errors.Is(err, errKilled) {
					t.Fatalf("move %d error = %v, want simulated crash", i, err)
				}
			}

			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			stale := n * blocksOn(t, s2, movedCode(!tc.moved, "rs-9-6", "pentagon"), 10)
			if rec := s2.LastRecovery(); rec.Orphans != stale {
				t.Fatalf("recovery = %+v, want %d blocks swept", rec, stale)
			}
			for name, data := range want {
				if code, _ := s2.FileCode(name); code != movedCode(tc.moved, "rs-9-6", "pentagon") {
					t.Fatalf("%s recovered onto %q", name, code)
				}
				got, err := s2.Get(name)
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("%s wrong after recovery (%v)", name, err)
				}
			}
			assertExactLayout(t, s2)
		})
	}
}

// TestTranscodeStreamsMemory is the streaming pipeline's memory
// acceptance check: moving a 64 MiB file allocates O(stripes in
// flight) — pooled frames per worker — not O(file). After one
// promote/demote warm-up fills the pools, a steady-state move's total
// allocation must be a small fraction of the file size (the old path
// materialized the whole file per move).
func TestTranscodeStreamsMemory(t *testing.T) {
	const (
		bs      = 1 << 16 // 64 KiB blocks
		fileLen = 64 << 20
	)
	dir := t.TempDir()
	s, err := Create(dir, "rs-9-6", bs)
	if err != nil {
		t.Fatal(err)
	}
	data := randomFile(t, fileLen, 71)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	// Warm the pools: one full promote/demote cycle.
	if _, err := s.Transcode("f", "pentagon"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transcode("f", "rs-9-6"); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := s.Transcode("f", "pentagon"); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	// Generous bound: an eighth of the file. The streaming pipeline's
	// steady state allocates path strings and journal records, not
	// block payloads; the old materializing path allocated the full
	// file buffer (64 MiB) before encoding even began. Under -race the
	// runtime intentionally drops sync.Pool recycles, so only the
	// byte-identity half of the test holds there.
	if limit := uint64(fileLen / 8); !raceEnabled && allocated > limit {
		t.Fatalf("steady-state transcode of a %d MiB file allocated %d MiB, want < %d MiB (streaming)",
			fileLen>>20, allocated>>20, limit>>20)
	}

	got, err := s.Get("f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("large file wrong after streaming transcode (%v)", err)
	}
}

// TestTranscodeStreamingDegradedTail: the streaming source must read
// through the degraded path per block and zero the padding blocks of
// the final stripe — a dead node plus a non-aligned length exercises
// both at once.
func TestTranscodeStreamingDegradedTail(t *testing.T) {
	s := newStore(t, "rs-14-10")
	want := randomFile(t, 3*10*blockSize+blockSize/2+3, 72)
	if err := s.Put("f", want); err != nil {
		t.Fatal(err)
	}
	if err := s.KillNode(0); err != nil { // data symbol 0's only copy
		t.Fatal(err)
	}
	rep, err := s.Transcode("f", "heptagon-local")
	if err != nil {
		t.Fatal(err)
	}
	if rep.DataBlocksRead == 0 || rep.BlocksWritten == 0 {
		t.Fatalf("report = %+v", rep)
	}
	got, err := s.Get("f")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("degraded streaming transcode corrupted the file (%v)", err)
	}
}

// TestRecoverSkipsLiveMove is the cross-process data-loss regression:
// while one store handle's move has its next generation on disk and no
// record yet, a second handle on the same directory runs Open — whose
// recovery pass sweeps every generation the manifest does not name. The
// store flock must make that recovery stand down (a held flock proves
// a live owner, so there is no crash residue) instead of destroying the
// generation the live move is about to commit or blocking the Open;
// each handle's flock is a distinct open file description, exactly like
// two processes.
func TestRecoverSkipsLiveMove(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "rs-9-6", blockSize)
	if err != nil {
		t.Fatal(err)
	}
	want := randomFile(t, 9*blockSize, 90)
	if err := s.Put("f", want); err != nil {
		t.Fatal(err)
	}
	parked := make(chan struct{})
	release := make(chan struct{})
	s.killHook = func(p string) error {
		if p == "staged" {
			close(parked)
			<-release
		}
		return nil
	}
	moveDone := make(chan error, 1)
	go func() {
		_, err := s.Transcode("f", "pentagon")
		moveDone <- err
	}()
	<-parked // the next generation on disk, no record — the sweep window

	// The second handle opens promptly (no blocking behind the move),
	// its recovery stands down, and the live move's blocks survive.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec := s2.LastRecovery(); rec != (RecoverReport{Skipped: true}) {
		t.Fatalf("recovery against a live move = %+v, want a stand-down", rec)
	}
	if next, _ := filepath.Glob(filepath.Join(dir, "node-*", "f.*.g1")); len(next) != blocksOn(t, s, "pentagon", 9) {
		t.Fatalf("%d blocks of the live move's generation on disk after the Open", len(next))
	}
	close(release)
	if err := <-moveDone; err != nil {
		t.Fatal(err)
	}

	// With the move finished and the flock released, a fresh Open runs
	// recovery normally and sees the committed result.
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec := s3.LastRecovery(); rec != (RecoverReport{}) {
		t.Fatalf("recovery after a clean move = %+v, want a quiet pass", rec)
	}
	if code, _ := s3.FileCode("f"); code != "pentagon" {
		t.Fatalf("reopened handle sees %q", code)
	}
	got, err := s3.Get("f")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("file wrong through reopened handle (%v)", err)
	}
}
