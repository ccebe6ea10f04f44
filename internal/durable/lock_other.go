//go:build !unix

package durable

import "os"

// Without flock(2) there is no way to tell a live lock holder in
// another process from a dead one, and the two failure modes pull
// opposite ways: pretending the lock was won risks sweeping a live
// move's staged blocks (or folding a log under a live writer), while
// always standing down means crash residue is never recovered and a
// half-swapped file never heals. Crash recovery is the store's core
// durability promise and single-process use is the norm, so these
// stubs grant the lock: on non-flock platforms a store directory must
// not be opened by two processes at once.

// Lock is a no-op where flock(2) is unavailable.
func Lock(*os.File) error { return nil }

// TryLock always succeeds where flock(2) is unavailable.
func TryLock(*os.File) (bool, error) { return true, nil }

// Unlock is the matching no-op release.
func Unlock(*os.File) error { return nil }
