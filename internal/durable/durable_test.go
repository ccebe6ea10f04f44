package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomic: a commit replaces the file whole, leaves no temp
// behind, overwrites stale residue at the temp path, and costs exactly
// two fsyncs — the file's and the parent directory's, the one that
// makes the rename itself durable.
func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.json")
	if err := os.WriteFile(path+".tmp", []byte("residue of a crashed save, longer than the new content"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, content := range []string{"first", "second, longer", "3"} {
		before := Syncs()
		if err := WriteFile(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if got := Syncs() - before; got != 2 {
			t.Fatalf("WriteFile issued %d fsyncs, want 2 (file + directory)", got)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != content {
			t.Fatalf("read back %q, %v; want %q", got, err, content)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("temp file left after a successful commit: %v", err)
		}
	}
}

// TestWriteFileFailureKeepsOld: a failure before the rename — here the
// temp path cannot be opened for writing, as on a full or read-only
// device — returns an error, leaves the previous content untouched and
// fsyncs no directory.
func TestWriteFileFailureKeepsOld(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.json")
	if err := WriteFile(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	before := Syncs()
	if err := WriteFile(path, []byte("new")); err == nil {
		t.Fatal("WriteFile succeeded with an unwritable temp path")
	}
	if got := Syncs() - before; got != 0 {
		t.Fatalf("failed WriteFile issued %d fsyncs", got)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
		t.Fatalf("content after failed commit = %q, %v; want the old file", got, err)
	}
	// A failed rename (the destination is a non-empty directory) also
	// cleans up its temp file.
	dir := filepath.Join(t.TempDir(), "taken")
	if err := os.MkdirAll(filepath.Join(dir, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(dir, []byte("x")); err == nil {
		t.Fatal("WriteFile replaced a non-empty directory")
	}
	if _, err := os.Stat(dir + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left after a failed rename: %v", err)
	}
}

// TestRemove: a removal costs exactly one fsync — the parent
// directory's, which makes it survive power loss — removing a file
// that is already gone is not an error, and a removal that fails
// returns its error.
func TestRemove(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pending.json")
	if err := WriteFile(path, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the second removes nothing
		before := Syncs()
		if err := Remove(path); err != nil {
			t.Fatal(err)
		}
		if got := Syncs() - before; got != 1 {
			t.Fatalf("Remove #%d issued %d fsyncs, want 1 (the directory)", i+1, got)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("file still there after Remove: %v", err)
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, "full", "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Remove(filepath.Join(dir, "full")); err == nil {
		t.Fatal("Remove of a non-empty directory succeeded")
	}
}

// TestWriteFileReadersNeverSeeTorn: while one goroutine commits
// alternating large contents, a reader only ever sees one of them
// whole — never a prefix, never an empty file.
func TestWriteFileReadersNeverSeeTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.json")
	a, b := bytes.Repeat([]byte("a"), 1<<20), bytes.Repeat([]byte("b"), 1<<20+1)
	if err := WriteFile(path, a); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			content := a
			if i%2 == 0 {
				content = b
			}
			if err := WriteFile(path, content); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for reads := 0; ; reads++ {
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, a) && !bytes.Equal(got, b) {
			t.Fatalf("read %d saw %d bytes, err %v: neither committed content", reads, len(got), err)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}
