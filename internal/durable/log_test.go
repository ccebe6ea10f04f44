package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// replayAll opens the log at path fresh and returns every record its
// valid prefix holds, plus the handle (positioned after them).
func replayAll(t *testing.T, path string) ([]string, *Log) {
	t.Helper()
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var recs []string
	if err := l.Replay(0, func(rec []byte) error {
		recs = append(recs, string(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs, l
}

// TestLogAppendReplay: records come back in order from a fresh handle,
// each Append is one write made durable by exactly one fsync however
// many records it carries, creating the file fsyncs its directory once,
// and a second handle picks up only the tail past its own offset.
func TestLogAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.log")
	before := Syncs()
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := Syncs() - before; got != 1 {
		t.Fatalf("creating the log issued %d fsyncs, want 1 (its directory)", got)
	}
	before = Syncs()
	if err := l.Append([]byte("head"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("")); err != nil {
		t.Fatal(err)
	}
	if got := Syncs() - before; got != 2 {
		t.Fatalf("two Appends issued %d fsyncs, want 2", got)
	}
	if want := int64(3*frameHeader + len("headone")); l.Size() != want {
		t.Fatalf("Size = %d, want %d", l.Size(), want)
	}
	before = Syncs()
	recs, other := replayAll(t, path)
	if fmt.Sprint(recs) != "[head one ]" || other.Size() != l.Size() || Syncs() != before {
		t.Fatalf("replayed %q to offset %d with %d fsyncs; want [head one ], %d, 0",
			recs, other.Size(), Syncs()-before, l.Size())
	}
	// The tail: only what l appends from here on.
	if err := l.Append([]byte("two")); err != nil {
		t.Fatal(err)
	}
	var tail []string
	if err := other.Replay(other.Size(), func(rec []byte) error {
		tail = append(tail, string(rec))
		return nil
	}); err != nil || fmt.Sprint(tail) != "[two]" || other.Size() != l.Size() {
		t.Fatalf("tail replay = %q, %v, offset %d; want [two], offset %d", tail, err, other.Size(), l.Size())
	}
	if err := other.Replay(other.Size()+1, func([]byte) error { return nil }); err == nil {
		t.Fatal("Replay from past the end of the file succeeded")
	}
}

// TestLogTornTail cuts the log at every byte of its last frame and
// flips every bit of it in turn: Replay yields exactly the earlier
// records, changes nothing on disk, and the next Append lands right
// after the valid prefix, the damaged tail gone.
func TestLogTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.log")
	_, l := replayAll(t, path)
	if err := l.Append([]byte("first"), []byte("second")); err != nil {
		t.Fatal(err)
	}
	prefix := l.Size()
	if err := l.Append([]byte("the last record")); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damaged := [][]byte{}
	for cut := prefix; cut < int64(len(whole)); cut++ {
		damaged = append(damaged, whole[:cut])
	}
	for bit := prefix * 8; bit < int64(len(whole))*8; bit++ {
		flipped := bytes.Clone(whole)
		flipped[bit/8] ^= 1 << (bit % 8)
		damaged = append(damaged, flipped)
	}
	for i, content := range damaged {
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, l := replayAll(t, path)
		if fmt.Sprint(recs) != "[first second]" || l.Size() != prefix {
			t.Fatalf("damage %d: replayed %q to offset %d, want [first second] to %d", i, recs, l.Size(), prefix)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, content) {
			t.Fatalf("damage %d: Replay changed the file (%v)", i, err)
		}
		if err := l.Append([]byte("next")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if recs, _ := replayAll(t, path); fmt.Sprint(recs) != "[first second next]" {
			t.Fatalf("damage %d: after the next append the log holds %q", i, recs)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != prefix+frameHeader+4 {
			t.Fatalf("damage %d: log is %d bytes after the append, want the prefix plus one frame", i, fi.Size())
		}
	}
}

// TestLogFailedAppendTruncates: an Append that fails keeps the offset at
// the last durable frame, and whatever it left behind — here a longer,
// half-written frame planted where a real partial write would sit — is
// cut off before the next record is written, so later acknowledged
// records are never stranded behind a bad frame.
func TestLogFailedAppendTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.log")
	_, l := replayAll(t, path)
	if err := l.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	durable := l.Size()
	readOnly, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer readOnly.Close()
	good := l.f
	l.f = readOnly // the write fails
	if err := l.Append([]byte("lost")); err == nil {
		t.Fatal("Append through a read-only descriptor succeeded")
	}
	l.f = good
	if l.Size() != durable || !l.torn {
		t.Fatalf("after a failed Append: offset %d (want %d), torn %v (want true)", l.Size(), durable, l.torn)
	}
	partial := append([]byte{200, 0, 0, 0, 1, 2, 3, 4}, bytes.Repeat([]byte("x"), 90)...)
	if _, err := l.f.WriteAt(partial, durable); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{"a", "b"} {
		if err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if recs, _ := replayAll(t, path); fmt.Sprint(recs) != "[kept a b]" {
		t.Fatalf("log holds %q, want [kept a b]", recs)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != l.Size() {
		t.Fatalf("file is %d bytes, the handle's offset %d: residue survived", fi.Size(), l.Size())
	}
}

// TestLogReset: an emptied log replays nothing, through this handle and
// a fresh one, and appends start over at offset 0.
func TestLogReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.log")
	_, l := replayAll(t, path)
	if err := l.Append([]byte("old generation")); err != nil {
		t.Fatal(err)
	}
	l.Reset()
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 || l.Size() != 0 {
		t.Fatalf("after Reset: file %d bytes, offset %d (%v)", fi.Size(), l.Size(), err)
	}
	if err := l.Append([]byte("new")); err != nil {
		t.Fatal(err)
	}
	if recs, _ := replayAll(t, path); fmt.Sprint(recs) != "[new]" {
		t.Fatalf("log holds %q, want [new]", recs)
	}
}
