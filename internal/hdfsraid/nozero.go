package hdfsraid

import "unsafe"

// mallocgc is the runtime's allocator, which the runtime keeps reachable
// by linkname ("Do not remove or change the type signature", go.dev/
// issue/67401); nozero.s lets the bodyless declaration compile. The
// technique is the one CockroachDB Pebble's internal/rawalloc uses.
//
//go:linkname mallocgc runtime.mallocgc
func mallocgc(size uintptr, typ unsafe.Pointer, needzero bool) unsafe.Pointer

// makeNoZero returns n bytes of pointer-free heap memory that the
// runtime does not clear first: for a Get's result, whose zeroing on one
// core cost a third of the CPU of reading the file on both.
//
// Whatever the memory held before is in it. So a buffer from makeNoZero
// is handed out only after readInto or readRange filled it and returned
// nil, and every way those deliver a byte writes it: a replica read
// (readBlockFile into dst), a known-zero symbol (clear(dst)), the read
// plan (clear(dst), then MulAddSlice of every payload), the decode (a
// copy over each lost window) and a cache hit (a copy). On any error the
// buffer is dropped unread: Get returns nil and ReadTo the error.
func makeNoZero(n int) []byte {
	return unsafe.Slice((*byte)(mallocgc(uintptr(n), nil, false)), n)
}
