package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestEncodeStreamMatchesSerial checks that the pooled streaming
// pipeline delivers exactly the stripes EncodeFile produces, across
// worker counts and ragged file sizes.
func TestEncodeStreamMatchesSerial(t *testing.T) {
	st, err := NewStriper(xorCode{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, size := range []int{0, 1, 15, 16, 17, 32, 33, 500, 2000} {
		data := make([]byte, size)
		rng.Read(data)
		serial, err := st.EncodeFile(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 3, 8} {
			seen := make(map[int][][]byte)
			var mu sync.Mutex
			err := st.EncodeStream(data, workers, nil, func(s EncodedStripe) error {
				// Copy: buffers are recycled after emit returns.
				cp := make([][]byte, len(s.Symbols))
				for i, b := range s.Symbols {
					cp[i] = append([]byte(nil), b...)
				}
				mu.Lock()
				defer mu.Unlock()
				if _, dup := seen[s.Index]; dup {
					return fmt.Errorf("stripe %d emitted twice", s.Index)
				}
				seen[s.Index] = cp
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) != len(serial) {
				t.Fatalf("size %d workers %d: got %d stripes, want %d", size, workers, len(seen), len(serial))
			}
			for _, want := range serial {
				got, ok := seen[want.Index]
				if !ok {
					t.Fatalf("stripe %d never emitted", want.Index)
				}
				for s := range want.Symbols {
					if !bytes.Equal(got[s], want.Symbols[s]) {
						t.Fatalf("size %d workers %d stripe %d symbol %d differs", size, workers, want.Index, s)
					}
				}
			}
		}
	}
}

// TestEncodeStreamEmitError checks that an emit failure cancels the
// stream and surfaces the error.
func TestEncodeStreamEmitError(t *testing.T) {
	st, _ := NewStriper(xorCode{}, 8)
	data := make([]byte, 8*2*50) // 50 stripes
	boom := fmt.Errorf("disk full")
	var calls atomic.Int32
	err := st.EncodeStream(data, 4, nil, func(EncodedStripe) error {
		if calls.Add(1) == 3 {
			return boom
		}
		return nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("got %v, want emit error", err)
	}
}

func TestEncodeStreamPoolSizeMismatch(t *testing.T) {
	st, _ := NewStriper(xorCode{}, 8)
	err := st.EncodeStream(make([]byte, 100), 2, NewBlockPool(16), func(EncodedStripe) error { return nil })
	if err == nil {
		t.Fatal("mismatched pool size accepted")
	}
}
