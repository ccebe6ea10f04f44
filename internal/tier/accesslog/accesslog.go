// Package accesslog is the record format and the write batching of the
// tier heat log: every read becomes one small Record, a Writer collects
// them in memory (amortized O(1), no I/O on the read path) until a byte
// or age threshold says the batch is due, and tier.HeatLog appends the
// due batch to the store's tier-heat.log — a durable.SnapLog shared by
// every process on the store — in one write and one fsync.
package accesslog

import (
	"crypto/rand"
	"encoding/binary"
	"math"
	"time"
)

// Record is one access-log entry: an access of weight N against one
// extent of a file, at Time seconds. Src identifies the writer that
// appended it, so a process tailing the log can skip records it already
// applied to its own in-memory tracker.
type Record struct {
	Name string
	Ext  int     // extent index, never negative
	N    float64 // access weight
	Time float64 // seconds (same clock as tier.Tracker)
	Src  uint64  // writer identity, stamped by Writer.Append
}

// A record's payload in the log is
// [le16 nameLen][name][le32 ext][le64 n][le64 time][le64 src].
const (
	maxName    = 4096
	fixedBytes = 2 + 4 + 8 + 8 + 8
)

// Encode returns the record's log payload.
func (r Record) Encode() []byte {
	if len(r.Name) > maxName {
		r.Name = r.Name[:maxName]
	}
	p := make([]byte, 0, fixedBytes+len(r.Name))
	p = binary.LittleEndian.AppendUint16(p, uint16(len(r.Name)))
	p = append(p, r.Name...)
	p = binary.LittleEndian.AppendUint32(p, uint32(int32(r.Ext)))
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(r.N))
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(r.Time))
	return binary.LittleEndian.AppendUint64(p, r.Src)
}

// Decode parses a log payload. ok is false when the bytes are not one
// complete record with an extent index, a finite weight and a finite
// time — another format's, a newer writer's, or an older one's
// whole-file record (Ext < 0).
func Decode(p []byte) (r Record, ok bool) {
	if len(p) < fixedBytes {
		return r, false
	}
	nameLen := int(binary.LittleEndian.Uint16(p))
	if nameLen > maxName || fixedBytes+nameLen != len(p) {
		return r, false
	}
	r.Name = string(p[2 : 2+nameLen])
	p = p[2+nameLen:]
	r.Ext = int(int32(binary.LittleEndian.Uint32(p)))
	r.N = math.Float64frombits(binary.LittleEndian.Uint64(p[4:]))
	r.Time = math.Float64frombits(binary.LittleEndian.Uint64(p[12:]))
	r.Src = binary.LittleEndian.Uint64(p[20:])
	// One NaN would stick to its counter for good, and no snapshot
	// holding it would marshal.
	finite := !math.IsNaN(r.N+r.Time) && !math.IsInf(r.N, 0) && !math.IsInf(r.Time, 0)
	return r, finite && r.Ext >= 0
}

// Options is empty: the batching thresholds are constants, since no
// caller ever set them. The type stays so that callers of
// tier.OpenHeatLog keep compiling.
type Options struct{}

const (
	// flushBytes makes a batch due once it holds this many payload bytes.
	flushBytes = 8 << 10
	// flushEvery makes a batch due once its oldest record is this old
	// (checked on the next Append). It is the durability window: a kill
	// loses at most this much heat.
	flushEvery = 500 * time.Millisecond
)

// Writer batches encoded records for one log handle and stamps them
// with its identity. It does no I/O and no locking: the owner appends
// what Pending returns to the log and then calls Reset, all under its
// own mutex.
type Writer struct {
	id     uint64
	batch  [][]byte
	bytes  int
	oldest time.Time
}

// NewWriter returns a writer with a random identity (see Record.Src).
func NewWriter() (*Writer, error) {
	var idb [8]byte
	if _, err := rand.Read(idb[:]); err != nil {
		return nil, err
	}
	return &Writer{id: binary.LittleEndian.Uint64(idb[:])}, nil
}

// ID returns the writer's random identity, the value stamped into
// Record.Src on Append.
func (w *Writer) ID() uint64 { return w.id }

// Append adds one record to the pending batch and reports whether the
// batch is now due a flush.
func (w *Writer) Append(rec Record) (due bool) {
	rec.Src = w.id
	p := rec.Encode()
	if len(w.batch) == 0 {
		w.oldest = time.Now()
	}
	w.batch = append(w.batch, p)
	w.bytes += len(p)
	return w.bytes >= flushBytes || time.Since(w.oldest) >= flushEvery
}

// Pending returns the encoded records appended since the last Reset.
func (w *Writer) Pending() [][]byte { return w.batch }

// Reset empties the batch once the owner has made it durable.
func (w *Writer) Reset() { w.batch, w.bytes = w.batch[:0], 0 }
