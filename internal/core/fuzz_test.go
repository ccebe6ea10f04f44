package core

import (
	"bytes"
	"testing"
)

// FuzzStriperRoundTrip drives the file striper's EncodeStream with
// arbitrary bytes and block sizes and decodes every stripe back.
func FuzzStriperRoundTrip(f *testing.F) {
	f.Add([]byte("quick brown fox"), uint8(4))
	f.Add([]byte{}, uint8(1))
	f.Add(bytes.Repeat([]byte{7}, 300), uint8(16))
	f.Fuzz(func(t *testing.T, data []byte, bs uint8) {
		blockSize := int(bs)
		if blockSize == 0 {
			blockSize = 1
		}
		st, err := NewStriper(xorCode{}, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		got, err := joinStripes(st, streamStripes(t, st, data, 0), len(data))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip mismatch: %d bytes at block size %d", len(data), blockSize)
		}
	})
}
