package block

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestXorIntoSelfInverse(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a) > len(b) {
			a = a[:len(b)]
		} else {
			b = b[:len(a)]
		}
		orig := bytes.Clone(a)
		XorInto(a, b)
		XorInto(a, b)
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
		XorInto(a, b)
		if !bytes.Equal(a, want) {
			t.Fatalf("XorInto wrong at size %d", n)
		}
	}
}

func TestXorIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	XorInto(make([]byte, 3), make([]byte, 4))
}

func TestXorVariadic(t *testing.T) {
	a := []byte{1, 2, 3}
	b := []byte{4, 5, 6}
	c := []byte{7, 8, 9}
	got := Xor(a, b, c)
	for i := range got {
		if got[i] != a[i]^b[i]^c[i] {
			t.Fatalf("Xor wrong at %d", i)
		}
	}
	// Inputs unchanged.
	if a[0] != 1 || b[0] != 4 || c[0] != 7 {
		t.Fatal("Xor modified its inputs")
	}
}

func TestXorEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Xor()
}

func TestXorParityProperty(t *testing.T) {
	// XOR of all data blocks plus the parity is zero.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		blocks := make([][]byte, 9)
		for i := range blocks {
			blocks[i] = make([]byte, 64)
			rng.Read(blocks[i])
		}
		parity := Xor(blocks...)
		all := append(blocks, parity)
		return bytes.Equal(Xor(all...), make([]byte, 64))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCloneAll(t *testing.T) {
	in := [][]byte{{1}, nil, {2, 3}}
	out := CloneAll(in)
	if out[1] != nil {
		t.Fatal("CloneAll did not preserve nil")
	}
	out[0][0] = 9
	if in[0][0] != 1 {
		t.Fatal("CloneAll aliases its input")
	}
}
