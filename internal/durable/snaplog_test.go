package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// ledger is the smallest state a SnapLog can keep: a list of words. Its
// snapshot is "<gen> word word ...".
type ledger struct {
	*SnapLog
	words    []string
	restores int
	// onRestore, when set, runs once inside the next restore: between a
	// Load's read of the snapshot and its read of the log.
	onRestore func()
	failNext  error
}

func openLedger(t *testing.T, dir string) *ledger {
	t.Helper()
	l := &ledger{}
	var err error
	l.SnapLog, err = OpenSnapLog(filepath.Join(dir, "state"), filepath.Join(dir, "state.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func (l *ledger) restore(raw []byte) (int64, error) {
	l.restores++
	if hook := l.onRestore; hook != nil {
		l.onRestore = nil
		hook()
	}
	if err := l.failNext; err != nil {
		l.failNext = nil
		return 0, err
	}
	l.words = nil
	if raw == nil {
		return 0, nil
	}
	fields := strings.Fields(string(raw))
	l.words = fields[1:]
	return strconv.ParseInt(fields[0], 10, 64)
}

func (l *ledger) load() error    { return l.Load(l.restore, l.apply) }
func (l *ledger) refresh() error { return l.Refresh(l.restore, l.apply) }

func (l *ledger) apply(rec []byte) error {
	l.words = append(l.words, string(rec))
	return nil
}

func (l *ledger) add(t *testing.T, word string) {
	t.Helper()
	if err := l.Append([]byte(word)); err != nil {
		t.Fatal(err)
	}
	l.words = append(l.words, word)
}

func (l *ledger) checkpoint(t *testing.T) {
	t.Helper()
	if err := l.Checkpoint(func(gen int64) ([]byte, error) {
		return []byte(fmt.Sprint(gen, " ", strings.Join(l.words, " "))), nil
	}); err != nil {
		t.Fatal(err)
	}
}

func (l *ledger) want(t *testing.T, gen int64, words string) {
	t.Helper()
	if got := strings.Join(l.words, " "); got != words || l.gen != gen {
		t.Fatalf("generation %d, words %q; want %d, %q", l.gen, got, gen, words)
	}
}

// TestSnapLogGenerations walks one handle through two generations: the
// header rides in the first append after a checkpoint and names the
// snapshot's generation, an append is one fsync, a checkpoint two, and
// a second handle loads the same state at every step.
func TestSnapLogGenerations(t *testing.T) {
	dir := t.TempDir()
	l := openLedger(t, dir)
	if err := l.load(); err != nil {
		t.Fatal(err)
	}
	l.want(t, 0, "")
	long := strings.Repeat("b", 100)
	before := Syncs()
	l.add(t, "a")
	l.add(t, long)
	if got := Syncs() - before; got != 2 {
		t.Fatalf("two appends issued %d fsyncs, want 2", got)
	}
	log, _ := os.ReadFile(filepath.Join(dir, "state.log"))
	if !bytes.Contains(log, []byte(`{"op":"gen"}`)) || bytes.Count(log, []byte(`"op"`)) != 1 {
		t.Fatalf("generation 0's log does not start with exactly one header: %q", log)
	}
	if l.Outgrown(int64(len(log))) || !l.Outgrown(int64(len(log))-1) {
		t.Fatalf("Outgrown disagrees with the log's %d bytes", len(log))
	}
	r := openLedger(t, dir)
	if err := r.load(); err != nil {
		t.Fatal(err)
	}
	r.want(t, 0, "a "+long)

	before = Syncs()
	l.checkpoint(t)
	if got := Syncs() - before; got != 2 || l.Size() != 0 {
		t.Fatalf("checkpoint issued %d fsyncs and left %d log bytes, want 2 and 0", got, l.Size())
	}
	if snap, _ := os.ReadFile(filepath.Join(dir, "state")); string(snap) != "1 a "+long {
		t.Fatalf("snapshot %q", snap)
	}
	l.add(t, "c")
	if log, _ = os.ReadFile(filepath.Join(dir, "state.log")); !bytes.Contains(log, []byte(`{"op":"gen","gen":1}`)) {
		t.Fatalf("generation 1's log header: %q", log)
	}
	// The log is due a checkpoint only once it outweighs the 104-byte
	// snapshot, whatever the floor.
	if l.Outgrown(0) {
		t.Fatalf("a %d-byte log has outgrown a 104-byte snapshot", l.Size())
	}
	l.add(t, long)
	if !l.Outgrown(0) || l.Outgrown(l.Size()) {
		t.Fatalf("a %d-byte log beside a 104-byte snapshot: Outgrown(0) = %v", l.Size(), l.Outgrown(0))
	}
	if err := r.refresh(); err != nil {
		t.Fatal(err)
	}
	r.want(t, 1, "a "+long+" c "+long)
}

// TestSnapLogRefresh: a refresh replays only the tail another handle
// appended, reloads when a checkpoint replaced the snapshot, and never
// tails from a load that failed.
func TestSnapLogRefresh(t *testing.T) {
	dir := t.TempDir()
	a, b := openLedger(t, dir), openLedger(t, dir)
	for _, l := range []*ledger{a, b} {
		if err := l.load(); err != nil {
			t.Fatal(err)
		}
	}
	a.add(t, "x")
	a.add(t, "y")
	if err := b.refresh(); err != nil {
		t.Fatal(err)
	}
	b.want(t, 0, "x y")
	if b.restores != 1 {
		t.Fatalf("tailing restored the snapshot %d times, want only the first load's", b.restores)
	}
	b.add(t, "z")
	b.checkpoint(t)
	b.add(t, "w")
	if err := a.refresh(); err != nil {
		t.Fatal(err)
	}
	a.want(t, 1, "x y z w")
	if a.restores != 2 {
		t.Fatalf("%d restores, want 2: a checkpoint means a reload", a.restores)
	}
	boom := errors.New("boom")
	b.checkpoint(t)
	a.failNext = boom
	if err := a.refresh(); !errors.Is(err, boom) {
		t.Fatalf("Refresh = %v, want the restore's failure", err)
	}
	if err := a.refresh(); err != nil {
		t.Fatal(err)
	}
	a.want(t, 2, "x y z w")
}

// TestSnapLogMismatchedGenerations builds both ways a log and a
// snapshot can fail to belong together. A log older than its snapshot —
// a crash between a checkpoint's two steps — is ignored, left alone by
// a handle that only reads, and cut off by the next append. A log newer
// than the snapshot read just before it — a checkpoint landed between
// the two reads — makes Load read both again.
func TestSnapLogMismatchedGenerations(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "state.log")
	l := openLedger(t, dir)
	if err := l.load(); err != nil {
		t.Fatal(err)
	}
	l.add(t, "a")
	l.add(t, "b")
	oldLog, _ := os.ReadFile(logPath)
	l.checkpoint(t)
	if err := os.WriteFile(logPath, oldLog, 0o644); err != nil {
		t.Fatal(err)
	}
	r := openLedger(t, dir)
	if err := r.load(); err != nil {
		t.Fatal(err)
	}
	r.want(t, 1, "a b")
	if now, _ := os.ReadFile(logPath); !bytes.Equal(now, oldLog) {
		t.Fatal("Load changed a stale log")
	}
	r.add(t, "c")
	if now, _ := os.ReadFile(logPath); bytes.Contains(now, []byte("a")) || int64(len(now)) != r.Size() {
		t.Fatalf("the stale records survived the next append: %q", now)
	}

	late := openLedger(t, dir)
	late.onRestore = func() { // the snapshot is read; now r checkpoints and moves on
		r.checkpoint(t)
		r.add(t, "d")
	}
	if err := late.load(); err != nil {
		t.Fatal(err)
	}
	late.want(t, 2, "a b c d")
	if late.restores != 2 {
		t.Fatalf("%d restores, want 2: the newer log must send Load back to the snapshot", late.restores)
	}

	// A log that does not begin with a header is refused.
	raw, err := OpenLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.Reset()
	if err := raw.Append([]byte("headless")); err != nil {
		t.Fatal(err)
	}
	if err := late.load(); err == nil || !strings.Contains(err.Error(), "generation header") {
		t.Fatalf("Load of a headerless log: %v", err)
	}
}
