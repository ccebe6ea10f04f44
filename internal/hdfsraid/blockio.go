package hdfsraid

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"time"
)

// BlockIO is the seam between the store and its block files: every
// block read, write, rename and removal the data plane performs goes
// through it, so a fault-injecting implementation (internal/faultfs)
// can corrupt, tear, delay or fail any of them without touching store
// logic. The default is a plain passthrough to the os package.
//
// Only block files route through the seam. The manifest, the heat
// sidecars, the advisory lock file, KillNode and the tests'
// CorruptBlock stay on direct os calls: manifest durability has its
// own path (durable.WriteFile), and the seam exists to exercise the
// block-level detection and healing machinery above it.
type BlockIO interface {
	// Open opens a block file for reading. The result must also be an
	// io.ReaderAt, as an *os.File is: the store reads only the checksum
	// table and the cells a read needs, and fails the read of anything
	// else with a plain error.
	Open(path string) (io.ReadCloser, error)
	// WriteFile writes a complete block frame.
	WriteFile(path string, data []byte, perm os.FileMode) error
	// Rename atomically moves a block file (quarantine, heal
	// write-back).
	Rename(oldPath, newPath string) error
	// Remove deletes a block file.
	Remove(path string) error
}

// osBlockIO is the default passthrough BlockIO.
type osBlockIO struct{}

func (osBlockIO) Open(path string) (io.ReadCloser, error) { return os.Open(path) }
func (osBlockIO) WriteFile(path string, data []byte, perm os.FileMode) error {
	return os.WriteFile(path, data, perm)
}
func (osBlockIO) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }
func (osBlockIO) Remove(path string) error             { return os.Remove(path) }

// SetBlockIO replaces the store's block-file I/O layer. Pass nil to
// restore the default passthrough. Set it before serving traffic —
// the field is read without synchronization on every block access.
func (s *Store) SetBlockIO(bio BlockIO) {
	if bio == nil {
		bio = osBlockIO{}
	}
	s.bio = bio
}

// Transient-read retry bounds: a block read that fails with an error
// other than a checksum mismatch or a missing file (an injected I/O
// error, a flaky device) is retried a bounded number of times with
// doubling backoff before the caller falls over to another replica or
// a degraded reconstruct. ErrCorrupt and fs.ErrNotExist never retry:
// they are verdicts about the bytes on disk, not the act of reading.
// Nor does errNoReaderAt, which no retry can change.
const (
	blockReadRetries = 2
	blockReadBackoff = 200 * time.Microsecond
)

// errNoReaderAt is readBlockFile's refusal of an Open result that is no
// io.ReaderAt: a fault of the BlockIO, not a verdict about the bytes on
// disk, so it is transient to the callers that judge replicas and is
// never retried.
var errNoReaderAt = errors.New("not an io.ReaderAt")

// transientReadErr reports whether a block-read failure is worth
// retrying: anything that is neither a checksum verdict nor a missing
// file.
func transientReadErr(err error) bool {
	return !errors.Is(err, ErrCorrupt) && !errors.Is(err, fs.ErrNotExist)
}

// readBlockInto reads and verifies bytes [off, off+len(dst)) of one
// block file's payload into dst through the store's BlockIO seam (see
// readBlockFile), retrying transient errors with bounded backoff. On
// error dst holds garbage.
func (s *Store) readBlockInto(path string, dst []byte, off int) error {
	read, err := readBlockFile(s.bio, s.payloadPool, path, dst, off)
	for attempt := 0; err != nil && transientReadErr(err) && !errors.Is(err, errNoReaderAt) && attempt < blockReadRetries; attempt++ {
		time.Sleep(blockReadBackoff << attempt)
		var n int
		n, err = readBlockFile(s.bio, s.payloadPool, path, dst, off)
		read += n
	}
	s.obs.add(cBlockReadBytes, int64(read))
	return err
}
