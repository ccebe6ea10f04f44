//go:build unix

package durable

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLocks: flock semantics through the one shim — a holder excludes
// Lock and TryLock from another open file description until it unlocks.
func TestLocks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lock")
	open := func() *os.File {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	f1, f3 := open(), open()
	if err := Lock(f1); err != nil {
		t.Fatal(err)
	}
	if ok, err := TryLock(f3); err != nil || ok {
		t.Fatalf("TryLock under a Lock holder = %v, %v; want refused", ok, err)
	}
	if err := Unlock(f1); err != nil {
		t.Fatal(err)
	}
	if ok, err := TryLock(f3); err != nil || !ok {
		t.Fatalf("TryLock on a free lock = %v, %v; want granted", ok, err)
	}
	if ok, err := TryLock(f1); err != nil || ok {
		t.Fatalf("TryLock under an exclusive holder = %v, %v; want refused", ok, err)
	}
	if err := Unlock(f3); err != nil {
		t.Fatal(err)
	}
	if err := Lock(f1); err != nil {
		t.Fatalf("exclusive lock after release: %v", err)
	}
}
