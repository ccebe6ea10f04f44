package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gf256"
)

func TestBlockPool(t *testing.T) {
	p := NewBlockPool(64)
	b := p.Get()
	if len(b) != 64 {
		t.Fatalf("Get returned %d bytes, want 64", len(b))
	}
	for i := range b {
		b[i] = 0xAA
	}
	p.Put(b)
	z := p.GetZero()
	if len(z) != 64 {
		t.Fatalf("GetZero returned %d bytes", len(z))
	}
	for i, v := range z {
		if v != 0 {
			t.Fatalf("GetZero byte %d = %#x, want 0", i, v)
		}
	}
	// Wrong-size and nil Puts must be dropped, not corrupt the pool.
	p.Put(make([]byte, 3))
	p.Put(nil)
	if got := p.Get(); len(got) != 64 {
		t.Fatalf("pool handed out %d bytes after bad Put", len(got))
	}
}

func TestBlockPoolInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBlockPool(0) did not panic")
		}
	}()
	NewBlockPool(0)
}

// TestEncodePlanMatchesMulVec checks the compiled plan against the
// plain matrix-vector product on random matrices, including zero rows
// and coefficient-1 fast paths.
func TestEncodePlanMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		m := gf256.NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				switch rng.Intn(4) {
				case 0: // leave zero
				case 1:
					m.Set(i, j, 1)
				default:
					m.Set(i, j, byte(rng.Intn(256)))
				}
			}
		}
		size := 1 + rng.Intn(100)
		in := make([][]byte, cols)
		for j := range in {
			in[j] = make([]byte, size)
			rng.Read(in[j])
		}
		want := m.MulVec(in)
		plan := CompileEncode(m)
		if plan.Rows() != rows {
			t.Fatalf("plan rows %d, want %d", plan.Rows(), rows)
		}
		out := make([][]byte, rows)
		for i := range out {
			out[i] = make([]byte, size)
			rng.Read(out[i]) // dirty: Apply must fully overwrite
		}
		plan.Apply(in, out)
		for i := range want {
			if !bytes.Equal(out[i], want[i]) {
				t.Fatalf("trial %d: plan row %d diverges from MulVec", trial, i)
			}
		}
	}
}

func TestSequenceKey(t *testing.T) {
	cases := []struct {
		in   []int
		want string
	}{
		{nil, ""},
		{[]int{3}, "3"},
		{[]int{3, 1, 2}, "3-1-2"},
		{[]int{2, 2, 1}, "2-2-1"},
	}
	for _, c := range cases {
		if got := SequenceKey(c.in); got != c.want {
			t.Errorf("SequenceKey(%v) = %q, want %q", c.in, got, c.want)
		}
	}
	// Order must distinguish keys: the cached artifacts (submatrix
	// inverses) are row-order-sensitive.
	if SequenceKey([]int{1, 2}) == SequenceKey([]int{2, 1}) {
		t.Error("SequenceKey collapsed distinct orderings")
	}
}

// TestMatrixCacheConcurrent hammers one cache from many goroutines
// with overlapping keys — the shape of parallel degraded reads under
// distinct erasure patterns — and checks every caller sees the right
// matrix for its key.
func TestMatrixCacheConcurrent(t *testing.T) {
	var cache MatrixCache
	const workers = 8
	const patterns = 5
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				pat := (w + iter) % patterns
				key := SequenceKey([]int{pat})
				m, err := cache.Get(key, func() (*gf256.Matrix, error) {
					mm := gf256.NewMatrix(1, 1)
					mm.Set(0, 0, byte(pat+1))
					return mm, nil
				})
				if err != nil {
					errs <- err
					return
				}
				if m.At(0, 0) != byte(pat+1) {
					errs <- fmt.Errorf("key %q returned matrix for %d", key, m.At(0, 0)-1)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if cache.Len() != patterns {
		t.Fatalf("cache has %d entries, want %d", cache.Len(), patterns)
	}
}

func TestMatrixCacheBuildErrorNotCached(t *testing.T) {
	var cache MatrixCache
	boom := fmt.Errorf("boom")
	if _, err := cache.Get("k", func() (*gf256.Matrix, error) { return nil, boom }); err != boom {
		t.Fatalf("got %v, want build error", err)
	}
	if cache.Len() != 0 {
		t.Fatal("error result was cached")
	}
	m, err := cache.Get("k", func() (*gf256.Matrix, error) { return gf256.Identity(2), nil })
	if err != nil || m == nil {
		t.Fatalf("retry after error failed: %v", err)
	}
}
