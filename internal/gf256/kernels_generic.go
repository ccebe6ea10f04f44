//go:build !amd64 && !arm64

package gf256

// The portable build has no vector kernels; the arch hooks process
// nothing and the generic loops take the whole slice.

func initArchKernels() {}

func archMulSliceTab(lo, hi *[16]byte, src, dst []byte) int    { return 0 }
func archMulAddSliceTab(lo, hi *[16]byte, src, dst []byte) int { return 0 }
func archXorSlice(src, dst []byte) int                         { return 0 }
