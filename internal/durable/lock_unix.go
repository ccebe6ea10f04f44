//go:build unix

package durable

import (
	"os"
	"syscall"
)

// Lock takes the exclusive advisory flock(2) on f, blocking until it is
// free. The kernel drops a process's flocks when it dies, so crash
// residue never wedges a later locker.
func Lock(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX)
}

// TryLock attempts the exclusive lock on f without blocking. A false
// return means another live process holds it.
func TryLock(f *os.File) (bool, error) {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if err == syscall.EWOULDBLOCK {
		return false, nil
	}
	return err == nil, err
}

// Unlock releases the advisory lock on f.
func Unlock(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
}
