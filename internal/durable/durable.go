// Package durable is the one place a metadata file becomes durable and
// the one advisory file lock: the reshard pending record and the
// metrics snapshot commit through WriteFile (and
// the pending record leaves through Remove);
// the store's manifest and the tier heat are each a SnapLog — a
// WriteFile'd snapshot plus a Log of the records since, tied together
// by a generation; and the store's mover lock and the heat log's flush
// lock are Lock/TryLock/Unlock.
package durable

import (
	"os"
	"path/filepath"
	"sync/atomic"
)

var syncs atomic.Int64

// Syncs returns the number of fsyncs this process's WriteFile, Remove
// and Log calls have issued, file and directory alike: two per
// committed file, one per removal, one per Append. Tests difference it
// around an operation to pin its metadata cost.
func Syncs() int64 { return syncs.Load() }

// WriteFile replaces path with data so that a crash at any point —
// power loss included — leaves either the previous complete file or
// the new one, never a torn half: write a sibling path+".tmp", fsync
// it, close it, rename it over path, then fsync the parent directory.
// The last step makes the rename itself durable before the caller
// takes destructive steps that depend on the new content (the store's
// journal records); without it a power loss could surface the old
// file beside their effects. A failure before the rename removes the
// temp file and leaves path untouched; stale residue at the temp path
// is simply overwritten.
func WriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = fsync(f)
	}
	if closeErr := f.Close(); err == nil {
		err = closeErr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// Remove deletes path, tolerating its absence, then fsyncs the parent
// directory so the removal survives power loss: once Remove returns,
// the file cannot come back.
func Remove(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir makes a rename, create or removal inside dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return fsync(d)
}

func fsync(f *os.File) error {
	syncs.Add(1)
	return f.Sync()
}
