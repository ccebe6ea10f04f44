package durable

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/block"
)

// Log is a single-writer append log of CRC-framed records (payload
// length, payload CRC-32C, payload). Append returns only once its
// records are fsynced; Replay stops at the first short or corrupt
// frame — what a crash, or another process's append in flight, leaves
// at the tail. Only Append and Reset change the file: a process that
// merely replays never truncates or rewrites it.
type Log struct {
	f *os.File
	// end is where the valid prefix this handle knows ends and the next
	// frame lands. torn: the file may hold bytes past it (a torn tail, a
	// failed Append's residue), which the next Append cuts off first.
	end  int64
	torn bool
}

const frameHeader = 8

// OpenLog opens the log at path at offset 0, creating it (and making
// the new directory entry durable) when absent.
func OpenLog(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if os.IsNotExist(err) {
		if f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644); err == nil {
			if err = syncDir(filepath.Dir(path)); err != nil {
				f.Close()
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return &Log{f: f}, nil
}

// Size is the handle's offset: the bytes of intact frames it has
// replayed or appended since offset 0.
func (l *Log) Size() int64 { return l.end }

// Close releases the file.
func (l *Log) Close() error { return l.f.Close() }

// Replay hands fn the payload (valid during the call) of each intact
// frame from offset from — 0, or a Size this handle reported — stopping
// at the first short or corrupt frame or at fn's first error, which it
// returns. The handle's offset becomes the end of the last frame fn
// accepted, so replaying from Size reads only what others appended.
func (l *Log) Replay(from int64, fn func(rec []byte) error) error {
	fi, err := l.f.Stat()
	if err != nil {
		return err
	}
	if from > fi.Size() {
		return fmt.Errorf("durable: log %s is %d bytes, shorter than offset %d", l.f.Name(), fi.Size(), from)
	}
	buf := make([]byte, fi.Size()-from)
	n, err := l.f.ReadAt(buf, from)
	if err != nil && err != io.EOF {
		return err
	}
	buf = buf[:n] // short only if a concurrent Reset cut the file
	l.end = from
	for len(buf) >= frameHeader {
		size := int64(binary.LittleEndian.Uint32(buf))
		if size > int64(len(buf)-frameHeader) {
			break
		}
		rec := buf[frameHeader : frameHeader+size]
		if block.Checksum(rec) != binary.LittleEndian.Uint32(buf[4:]) {
			break
		}
		if err := fn(rec); err != nil {
			l.torn = true
			return err
		}
		buf = buf[frameHeader+size:]
		l.end += frameHeader + size
	}
	l.torn = len(buf) > 0
	return nil
}

// Append frames recs, writes them at the handle's offset in one write
// and fsyncs: when it returns nil every record is durable, in order. A
// failure leaves the offset where it was and the tail marked torn, so
// the next Append truncates back to the last durable frame instead of
// stranding its records behind a bad one.
func (l *Log) Append(recs ...[]byte) error {
	if l.torn {
		if err := l.f.Truncate(l.end); err != nil {
			return err
		}
	}
	var buf []byte
	for _, rec := range recs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec)))
		buf = binary.LittleEndian.AppendUint32(buf, block.Checksum(rec))
		buf = append(buf, rec...)
	}
	l.torn = true
	if _, err := l.f.WriteAt(buf, l.end); err != nil {
		return err
	}
	if err := fsync(l.f); err != nil {
		return err
	}
	l.end, l.torn = l.end+int64(len(buf)), false
	return nil
}

// Reset empties the log once a snapshot has made its records
// redundant; a failed truncate is retried by the next Append.
func (l *Log) Reset() {
	l.end, l.torn = 0, l.f.Truncate(0) != nil
}
