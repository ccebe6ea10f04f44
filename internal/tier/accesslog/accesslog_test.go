package accesslog

import (
	"math"
	"strings"
	"testing"
	"time"
)

func newTestWriter(t *testing.T) *Writer {
	t.Helper()
	w, err := NewWriter()
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	return w
}

// TestRoundtrip: what Append batches decodes to the records appended,
// stamped with the writer's identity; anything that is not exactly one
// record of an extent, finite weight and finite time does not decode.
func TestRoundtrip(t *testing.T) {
	w := newTestWriter(t)
	want := []Record{
		{Name: "a.bin", Ext: 1, N: 1, Time: 100},
		{Name: "b/with/slashes.dat", Ext: 7, N: 2.5, Time: 101.25},
		{Name: "", Ext: 0, N: 1, Time: 102},
		{Name: strings.Repeat("n", maxName), Ext: 1 << 20, N: 1e-9, Time: 1.7e9},
	}
	for _, r := range want {
		w.Append(r)
	}
	got := w.Pending()
	if len(got) != len(want) {
		t.Fatalf("%d records pending, want %d", len(got), len(want))
	}
	for i, raw := range got {
		r, ok := Decode(raw)
		want[i].Src = w.ID()
		if !ok || r != want[i] {
			t.Fatalf("record %d = %+v, %v; want %+v", i, r, ok, want[i])
		}
		for _, bad := range [][]byte{raw[:len(raw)-1], append(raw[:len(raw):len(raw)], 0), nil} {
			if _, ok := Decode(bad); ok {
				t.Fatalf("record %d: Decode accepted %d of its %d bytes", i, len(bad), len(raw))
			}
		}
	}
	// A weight or time that is NaN or infinite would poison its counter
	// and every snapshot after it; a whole-file record (Ext < 0) is an
	// older writer's, which no counter takes any more.
	for _, r := range []Record{
		{Name: "f", Ext: -1, N: 1, Time: 1},
		{Name: "f", N: math.NaN(), Time: 1},
		{Name: "f", N: 1, Time: math.NaN()},
		{Name: "f", N: math.Inf(1), Time: 1},
		{Name: "f", N: 1, Time: math.Inf(-1)},
	} {
		if _, ok := Decode(r.Encode()); ok {
			t.Errorf("Decode accepted extent %d, weight %v at time %v", r.Ext, r.N, r.Time)
		}
	}
	long := Record{Name: strings.Repeat("x", maxName+5), Ext: 3, N: 1, Time: 1}
	if r, ok := Decode(long.Encode()); !ok || len(r.Name) != maxName || r.Ext != 3 {
		t.Fatalf("an over-long name: %d bytes, ext %d, %v; want it cut to %d", len(r.Name), r.Ext, ok, maxName)
	}
}

// TestAppendIsBuffered: below both thresholds an Append only grows the
// batch, and Reset empties it.
func TestAppendIsBuffered(t *testing.T) {
	w := newTestWriter(t)
	for i := 0; i < 100; i++ {
		if w.Append(Record{Name: "x", Ext: 0, N: 1, Time: float64(i)}) {
			t.Fatalf("append %d (%d bytes pending) reported the batch due", i, w.bytes)
		}
	}
	if len(w.Pending()) != 100 {
		t.Fatalf("%d records pending, want 100", len(w.Pending()))
	}
	w.Reset()
	if len(w.Pending()) != 0 || w.bytes != 0 {
		t.Fatalf("after Reset: %d records, %d bytes", len(w.Pending()), w.bytes)
	}
}

// TestFlushThresholdTrips: a batch is due at flushBytes of payload, or
// once its oldest record is flushEvery old — and stays due until Reset.
func TestFlushThresholdTrips(t *testing.T) {
	w := newTestWriter(t)
	rec := Record{Name: "file.bin", Ext: 0, N: 1, Time: 1}
	size := len(rec.Encode())
	for n := 1; ; n++ {
		due := w.Append(rec)
		if want := n*size >= flushBytes; due != want {
			t.Fatalf("append %d (%d bytes): due = %v, want %v", n, n*size, due, want)
		}
		if due {
			break
		}
	}
	if !w.Append(rec) {
		t.Fatal("a due batch stopped being due before Reset")
	}
	w.Reset()
	if w.Append(rec) {
		t.Fatal("the first record after Reset is due")
	}
	w.oldest = time.Now().Add(-flushEvery)
	if !w.Append(rec) {
		t.Fatalf("a batch whose oldest record is %v old is not due", flushEvery)
	}
}
