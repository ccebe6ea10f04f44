package block

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gf256"
)

// xorInto is the in-place XOR of one block payload into another
// (dst ^= src) that every XOR parity in the module computes.
func xorInto(dst, src []byte) { gf256.XorSlice(src, dst) }

func TestXorIntoSelfInverse(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a) > len(b) {
			a = a[:len(b)]
		} else {
			b = b[:len(a)]
		}
		orig := bytes.Clone(a)
		xorInto(a, b)
		xorInto(a, b)
		return bytes.Equal(a, orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXorIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1024} {
		a := make([]byte, n)
		b := make([]byte, n)
		rng.Read(a)
		rng.Read(b)
		want := make([]byte, n)
		for i := range want {
			want[i] = a[i] ^ b[i]
		}
		xorInto(a, b)
		if !bytes.Equal(a, want) {
			t.Fatalf("xorInto wrong at size %d", n)
		}
	}
}

func TestXorIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	xorInto(make([]byte, 3), make([]byte, 4))
}
