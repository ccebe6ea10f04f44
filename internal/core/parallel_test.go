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
// pipeline delivers exactly the stripes a serial split-and-Encode
// produces, across worker counts and ragged file sizes.
func TestEncodeStreamMatchesSerial(t *testing.T) {
	st, err := NewStriper(xorCode{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, size := range []int{0, 1, 15, 16, 17, 32, 33, 500, 2000} {
		data := make([]byte, size)
		rng.Read(data)
		serial := serialStripes(t, st, data)
		for _, workers := range []int{0, 1, 3, 8} {
			stream := streamStripes(t, st, data, workers)
			if len(stream) != len(serial) {
				t.Fatalf("size %d workers %d: got %d stripes, want %d", size, workers, len(stream), len(serial))
			}
			for i, want := range serial {
				for s := range want {
					if !bytes.Equal(stream[i][s], want[s]) {
						t.Fatalf("size %d workers %d stripe %d symbol %d differs", size, workers, i, s)
					}
				}
			}
		}
	}
}

// streamStripes encodes data through EncodeStream and returns a copy of
// every stripe's symbols in stripe order, failing t unless each stripe
// is emitted exactly once.
func streamStripes(t testing.TB, st *Striper, data []byte, workers int) [][][]byte {
	t.Helper()
	stripes := make([][][]byte, st.StripeCount(len(data)))
	var mu sync.Mutex
	err := st.EncodeStream(data, workers, nil, func(s EncodedStripe) error {
		// Copy: buffers are recycled after emit returns.
		cp := make([][]byte, len(s.Symbols))
		for i, b := range s.Symbols {
			cp[i] = bytes.Clone(b)
		}
		mu.Lock()
		defer mu.Unlock()
		if stripes[s.Index] != nil {
			return fmt.Errorf("stripe %d emitted twice", s.Index)
		}
		stripes[s.Index] = cp
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range stripes {
		if s == nil {
			t.Fatalf("stripe %d never emitted", i)
		}
	}
	return stripes
}

// serialStripes is the reference EncodeStream is checked against: each
// stripe's k blocks cut from data by hand, the last ones zero-padded,
// then Encode.
func serialStripes(t testing.TB, st *Striper, data []byte) [][][]byte {
	t.Helper()
	var stripes [][][]byte
	for lo, k := 0, st.Code.DataSymbols(); lo < len(data); lo += k * st.BlockSize {
		blocks := make([][]byte, k)
		for j := range blocks {
			blocks[j] = make([]byte, st.BlockSize)
			copy(blocks[j], data[min(lo+j*st.BlockSize, len(data)):])
		}
		symbols, err := Encode(st.Code, blocks)
		if err != nil {
			t.Fatal(err)
		}
		stripes = append(stripes, symbols)
	}
	return stripes
}

// joinStripes decodes every stripe with Code.Decode and returns the
// first n bytes of their data blocks in order: the file they hold.
func joinStripes(st *Striper, stripes [][][]byte, n int) ([]byte, error) {
	var out []byte
	for i, symbols := range stripes {
		data, err := st.Code.Decode(symbols)
		if err != nil {
			return nil, fmt.Errorf("decoding stripe %d: %w", i, err)
		}
		for _, b := range data {
			out = append(out, b...)
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("%d stripes hold %d bytes, want %d", len(stripes), len(out), n)
	}
	return out[:n], nil
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
