package accesslog

import (
	"crypto/rand"
	"encoding/binary"
	"os"
	"sync"
	"time"

	"repro/internal/durable"
)

// Options tunes a Writer's batching and rotation thresholds. Zero
// values take the defaults.
type Options struct {
	// FlushBytes flushes and fsyncs the pending batch once it reaches
	// this many encoded bytes. Default 8 KiB.
	FlushBytes int
	// FlushEvery flushes once the oldest pending record is this old
	// (checked on the next Append; Flush and Close force it). This is
	// the durability window: a kill loses at most this much heat.
	// Default 500ms.
	FlushEvery time.Duration
	// SegmentBytes rotates to a fresh segment once the active one
	// grows past this, sealing the old one for compaction. Default
	// 1 MiB.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.FlushBytes <= 0 {
		o.FlushBytes = 8 << 10
	}
	if o.FlushEvery <= 0 {
		o.FlushEvery = 500 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	return o
}

// Writer appends records to the active segment of an access log.
// Appends buffer in memory (O(1), no I/O) until a threshold trips;
// a flush is one O_APPEND write(2) of the whole batch plus one fsync,
// taken under a shared flock so a concurrent compactor can never
// delete a segment out from under a batch. Writers in different
// processes interleave safely: each batch is a single append.
type Writer struct {
	// OnFlush, when set, observes each durable batch (record count and
	// encoded bytes) — the obs wiring point. Called without locks held
	// by the flush path.
	OnFlush func(records, bytes int)

	dir string
	opt Options
	id  uint64

	mu      sync.Mutex
	f       *os.File
	seq     int64
	buf     []byte
	pending int
	oldest  time.Time
	closed  bool
}

// OpenWriter opens (creating if needed) the access log in dir for
// appending. The writer gets a random identity used to stamp records
// (see Record.Src).
func OpenWriter(dir string, opt Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var idb [8]byte
	if _, err := rand.Read(idb[:]); err != nil {
		return nil, err
	}
	w := &Writer{
		dir: dir,
		opt: opt.withDefaults(),
		id:  binary.LittleEndian.Uint64(idb[:]),
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w, w.ensureSegmentLocked()
}

// ID returns the writer's random identity, the value stamped into
// Record.Src on Append.
func (w *Writer) ID() uint64 { return w.id }

// Append buffers one record. It performs no I/O unless a batching
// threshold has tripped, in which case the whole pending batch is
// written and fsync'd.
func (w *Writer) Append(rec Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return os.ErrClosed
	}
	rec.Src = w.id
	w.buf = appendFrame(w.buf, rec)
	w.pending++
	if w.pending == 1 {
		w.oldest = time.Now()
	}
	if len(w.buf) >= w.opt.FlushBytes || time.Since(w.oldest) >= w.opt.FlushEvery {
		return w.flushLocked()
	}
	return nil
}

// Flush forces the pending batch to durable storage.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	return w.flushLocked()
}

// Rotate flushes, then seals the active segment by creating its
// successor, making the old one eligible for compaction. Used by
// compaction callers that want the log folded all the way down.
func (w *Writer) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return os.ErrClosed
	}
	if err := w.flushLocked(); err != nil {
		return err
	}
	next := w.seq + 1
	f, err := os.OpenFile(segPath(w.dir, next), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil // someone else rotated; ensureSegment will find it
		}
		return err
	}
	_ = f.Close()
	syncDir(w.dir)
	return w.ensureSegmentLocked()
}

// Close flushes and releases the segment handle.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	err := w.flushLocked()
	w.closed = true
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.f = nil
	}
	return err
}

// ensureSegmentLocked points w.f at the current highest segment,
// creating seg-00000001.log when the log is empty.
func (w *Writer) ensureSegmentLocked() error {
	seqs, err := Segments(w.dir)
	if err != nil {
		return err
	}
	latest := int64(0)
	if len(seqs) > 0 {
		latest = seqs[len(seqs)-1]
	}
	if latest == 0 {
		latest = 1
		f, err := os.OpenFile(segPath(w.dir, latest), os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		_ = f.Close()
		syncDir(w.dir)
	}
	if w.f != nil && w.seq == latest {
		return nil
	}
	if w.f != nil {
		_ = w.f.Close()
		w.f = nil
	}
	// No O_CREATE: if a rotation sealed this segment and a compactor
	// folded and removed it since the listing, creating it again would
	// put the batch in a segment at or below the snapshot's watermark,
	// which replay skips and the next compaction deletes unread. The
	// highest segment is never removed, so listing again finds it.
	f, err := os.OpenFile(segPath(w.dir, latest), os.O_WRONLY|os.O_APPEND, 0o644)
	if os.IsNotExist(err) {
		return w.ensureSegmentLocked()
	}
	if err != nil {
		return err
	}
	w.f, w.seq = f, latest
	return nil
}

// flushLocked writes the pending batch as one append under a shared
// flock, fsyncs, and rotates if the segment outgrew SegmentBytes. If
// the segment was compacted away between flushes (unlinked inode), it
// reopens the current one and retries.
func (w *Writer) flushLocked() error {
	if len(w.buf) == 0 {
		return nil
	}
	for attempt := 0; ; attempt++ {
		if err := w.ensureSegmentLocked(); err != nil {
			return err
		}
		if err := durable.Lock(w.f, false); err != nil {
			return err
		}
		// A compactor may have folded and unlinked this segment while
		// we were between flushes; its records are in the snapshot, so
		// appending to the dead inode would lose the batch. Re-check
		// under the lock and move to the live segment.
		fi, ferr := w.f.Stat()
		di, derr := os.Stat(segPath(w.dir, w.seq))
		if ferr != nil || derr != nil || !os.SameFile(fi, di) {
			_ = durable.Unlock(w.f)
			_ = w.f.Close()
			w.f = nil
			if attempt > 100 {
				return derr
			}
			continue
		}
		if _, err := w.f.Write(w.buf); err != nil {
			_ = durable.Unlock(w.f)
			return err
		}
		if err := w.f.Sync(); err != nil {
			_ = durable.Unlock(w.f)
			return err
		}
		size := fi.Size() + int64(len(w.buf))
		_ = durable.Unlock(w.f)

		records, bytes := w.pending, len(w.buf)
		w.buf = w.buf[:0]
		w.pending = 0
		if w.OnFlush != nil {
			w.OnFlush(records, bytes)
		}
		if size >= w.opt.SegmentBytes {
			next := w.seq + 1
			f, err := os.OpenFile(segPath(w.dir, next), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
			if err == nil {
				_ = f.Close()
				syncDir(w.dir)
			} else if !os.IsExist(err) {
				return err
			}
			return w.ensureSegmentLocked()
		}
		return nil
	}
}
