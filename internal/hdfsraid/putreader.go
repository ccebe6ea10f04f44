package hdfsraid

import (
	"bytes"
	"fmt"
	"io"
)

// ingestKey names the per-file ingest lock Put and PutReader hold
// while writing a new file's blocks: concurrent writers of one name
// serialize on it, so a loser never overwrites a winner's committed
// blocks. The key space is disjoint from transcode move keys.
func ingestKey(name string) string { return "\x00ingest\x00" + name }

// Put stores a file held in memory: PutReader over the bytes, so both
// ingests share one write path and produce identical layouts.
func (s *Store) Put(name string, data []byte) error {
	return s.PutReader(name, bytes.NewReader(data))
}

// PutReader stripes, encodes and stores a file streamed from r,
// without a caller-materialized byte slice. With extents enabled
// (CreateExt) the file is split into extent-sized runs, each striped
// independently so it can later change tier on its own. The data plane
// is the store's one stripe writer (writeStripes): a sequential fill
// reads one stripe's data blocks at a time into pooled buffers
// (closing each stripe at the extent boundary), and up to GOMAXPROCS
// stripes encode and write behind it, so peak memory is independent
// of the file's length. The file's length and extent map are recorded
// when r reports io.EOF; any other source error, like a failed encode
// or write, fails the ingest and leaves none of its blocks behind.
//
// The store lock is NOT held while the reader drains or stripes encode
// — a slow or stalling source must not block readers of other files.
// Instead the name is claimed through a per-name ingest lock held for
// the whole stream: concurrent writers of one name serialize, the
// loser errors at its pre-stream check, and no block is ever written
// for a name another writer already committed.
func (s *Store) PutReader(name string, r io.Reader) (err error) {
	start := s.obs.now()
	defer func() { s.obs.since(hPut, start) }()
	s.lockMove(ingestKey(name))
	defer s.unlockMove(ingestKey(name))
	s.mu.RLock()
	err = s.checkNewFile(name)
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	k, extBlocks := s.code.DataSymbols(), s.extentBlocks
	if err := s.ensureNodeDirs(s.code.Nodes()); err != nil {
		return err
	}
	// A stripe holds k data blocks but never crosses an extent
	// boundary: the capacity left in the current extent caps how many
	// carry data, and the rest stay known zeros.
	total, ext, extDone, stripe := 0, 0, 0, 0
	fill := func(p *pendingStripe) (more bool, err error) {
		limit := k
		if extBlocks > 0 {
			limit = min(k, extBlocks-extDone)
		}
		p.ext, p.stripe = ext, stripe
		for p.live < limit {
			buf := s.payloadPool.Get()
			n, eof, err := fillBlock(r, buf)
			if total += n; n > 0 {
				p.blocks[p.live], p.live = buf, p.live+1
			} else {
				s.payloadPool.Put(buf)
			}
			if err != nil {
				return false, fmt.Errorf("reading source: %w", err)
			}
			if eof {
				return false, nil // reader exhausted at or inside this stripe
			}
		}
		if extDone += limit; extBlocks > 0 && extDone == extBlocks {
			ext, extDone, stripe = ext+1, 0, 0
		} else {
			stripe++
		}
		return true, nil
	}
	if err := s.writeStripes(s.codeName, name, extBlocks > 0, 0, fill); err != nil {
		return fmt.Errorf("hdfsraid: put %q: %w", name, err)
	}
	fi := FileInfo{
		Length:      total,
		Extents:     s.buildExtents(total),
		ExtentPaths: extBlocks > 0,
	}
	refreshSummary(&fi)
	// Commit: re-check the name under the manifest lock — another
	// writer may have claimed it while this stream drained.
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkNewFile(name); err != nil {
		return err
	}
	if err := s.commit(record{Op: opPut, Name: name, File: &fi}); err != nil {
		return err
	}
	s.obs.add(cBytesIn, int64(total))
	return nil
}

// fillBlock reads one full data block (or the file's tail) from r into
// buf, zeroing the unread remainder. eof reports that r is exhausted at
// or inside this block. Only r's own io.EOF ends the stream: any other
// error — an io.ErrUnexpectedEOF from a request body cut short of its
// declared length among them — fails the ingest.
func fillBlock(r io.Reader, buf []byte) (n int, eof bool, err error) {
	for n < len(buf) && err == nil {
		var m int
		m, err = r.Read(buf[n:])
		n += m
	}
	clear(buf[n:])
	if err == io.EOF {
		return n, true, nil
	}
	return n, false, err
}
