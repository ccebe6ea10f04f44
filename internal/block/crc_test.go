package block

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"
)

// stdlib is the reference every tier is checked against.
var stdlib = crc32.MakeTable(crc32.Castagnoli)

// forEachTier runs f with the fold kernel forced on (where the CPU has
// it) and off, so one run on a capable host checks both.
func forEachTier(t *testing.T, f func(*testing.T)) {
	saved := useFold
	defer func() { useFold = saved }()
	if saved {
		useFold = true
		t.Run("fold", f)
	} else {
		t.Log("CPU lacks AVX-512F + VPCLMULQDQ; fold tier not exercised")
	}
	useFold = false
	t.Run("stdlib", f)
}

func checkChecksum(t *testing.T, b []byte, off int) {
	t.Helper()
	if got, want := Checksum(b), crc32.Checksum(b, stdlib); got != want {
		t.Fatalf("%d bytes at offset %d: Checksum = %#08x, hash/crc32 = %#08x", len(b), off, got, want)
	}
}

func TestChecksumMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	buf := make([]byte, 1<<20+64)
	rng.Read(buf)
	forEachTier(t, func(t *testing.T) {
		for off := 0; off < 8; off++ {
			for n := 0; n <= 2048; n++ {
				checkChecksum(t, buf[off:off+n], off)
			}
		}
		for i := 0; i < 200; i++ {
			off := rng.Intn(64)
			checkChecksum(t, buf[off:off+rng.Intn(1<<20)], off)
		}
		for _, n := range []int{256, 4096, 64 << 10, 1 << 20} {
			checkChecksum(t, make([]byte, n), 0)
			checkChecksum(t, bytes.Repeat([]byte{0xFF}, n), 0)
		}
		if got := Checksum([]byte("123456789")); got != 0xE3069283 {
			t.Fatalf("CRC-32C check value = %#08x, want 0xe3069283", got)
		}
	})
}

// FuzzChecksum compares Checksum, on whichever tier the CPU selects,
// with hash/crc32.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte("123456789"))
	f.Add(bytes.Repeat([]byte{0xA5}, 300))
	f.Add(bytes.Repeat([]byte("fold"), 1000))
	f.Fuzz(func(t *testing.T, b []byte) { checkChecksum(t, b, 0) })
}

// BenchmarkChecksum measures Checksum beside hash/crc32 at the sizes the
// store checksums: a manifest record, a one-cell 16 KiB block, a 64 KiB
// cell and a single-checksum 1 MiB frame.
func BenchmarkChecksum(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"125B", 125}, {"16KiB", 16 << 10}, {"64KiB", 64 << 10}, {"1MiB", 1 << 20}} {
		buf := make([]byte, size.n)
		rand.New(rand.NewSource(1)).Read(buf)
		b.Run(size.name, func(b *testing.B) {
			b.SetBytes(int64(size.n))
			for b.Loop() {
				Checksum(buf)
			}
		})
		b.Run(size.name+"_stdlib", func(b *testing.B) {
			b.SetBytes(int64(size.n))
			for b.Loop() {
				crc32.Checksum(buf, stdlib)
			}
		})
	}
}
