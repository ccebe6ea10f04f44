package hdfsraid

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
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
// writing every symbol replica to its placement node, without a
// caller-materialized byte slice. With extents enabled (CreateExt) the
// file is split into extent-sized runs, each striped independently so
// it can later change tier on its own. The data plane streams: a
// sequential producer reads one stripe's data blocks at a time into
// pooled buffers (closing each stripe at the extent boundary), and a
// calibrated worker pool (the default code's tuned encode width,
// GOMAXPROCS when uncalibrated) encodes and writes stripes
// concurrently behind it. Peak memory is O(workers × stripe),
// independent of the file's length — the ingest-side counterpart of
// the streaming transcode pipeline. The file's length and extent map
// are recorded when the reader is exhausted.
//
// The store lock is NOT held while the reader drains or stripes encode
// — a slow or stalling source must not block readers of other files.
// Instead the name is claimed through a per-name ingest lock held for
// the whole stream: concurrent writers of one name serialize, the
// loser errors at its pre-stream check, and no block is ever written
// for a name another writer already committed.
func (s *Store) PutReader(name string, r io.Reader) (err error) {
	if s.obs != nil {
		start := time.Now()
		defer func() {
			s.obs.putNs.Observe(time.Since(start).Nanoseconds())
		}()
	}
	s.lockMove(ingestKey(name))
	defer s.unlockMove(ingestKey(name))
	s.mu.RLock()
	err = s.checkNewFile(name)
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	k := s.code.DataSymbols()
	extBlocks := s.extentBlocks
	pathFI := FileInfo{ExtentPaths: extBlocks > 0}
	cc := codec{s.code, s.striper}
	p := cc.code.Placement()
	if err := s.ensureNodeDirs(cc.code.Nodes()); err != nil {
		return err
	}

	type job struct {
		ext, stripe int
		blocks      [][]byte // k pooled payload buffers, padding zeroed
	}
	release := func(blocks [][]byte) {
		for _, b := range blocks {
			if b != nil {
				s.payloadPool.Put(b)
			}
		}
	}
	workers := s.encodeWorkersFor(s.codeName)
	jobs := make(chan job, workers)
	var failed atomic.Bool
	errs := make([]error, workers+1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if failed.Load() {
					release(j.blocks)
					continue
				}
				symbols, rel, err := core.EncodeWith(cc.code, s.payloadPool, j.blocks)
				if err == nil {
				write:
					for sym, buf := range symbols {
						for _, v := range p.SymbolNodes[sym] {
							path := s.extentBlockPath(v, name, pathFI, j.ext, j.stripe, sym)
							if err = s.writeBlock(path, buf); err != nil {
								break write
							}
						}
					}
					rel()
				}
				release(j.blocks)
				if err != nil {
					errs[w+1] = fmt.Errorf("hdfsraid: put %q extent %d stripe %d: %w", name, j.ext, j.stripe, err)
					failed.Store(true)
				}
			}
		}()
	}

	// fillBlock reads one full data block (or the file's tail),
	// zeroing the unread remainder. eof reports that the reader is
	// exhausted at or inside this block.
	fillBlock := func(buf []byte) (n int, eof bool, err error) {
		n, err = io.ReadFull(r, buf)
		if n < len(buf) {
			clear(buf[n:])
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return n, true, nil
		}
		return n, false, err
	}

	total := 0
	ext, extDone, stripe := 0, 0, 0
	for !failed.Load() {
		// A stripe holds k data blocks but never crosses an extent
		// boundary: the capacity left in the current extent caps how
		// many carry data, and the rest are padding.
		limit := k
		if extBlocks > 0 && extBlocks-extDone < k {
			limit = extBlocks - extDone
		}
		blocks := make([][]byte, k)
		read, eof := 0, false
		var rdErr error
		for j := 0; j < k; j++ {
			buf := s.payloadPool.Get()
			blocks[j] = buf
			if j >= limit || eof {
				clear(buf)
				continue
			}
			var n int
			n, eof, rdErr = fillBlock(buf)
			total += n
			if n > 0 {
				read++
			}
			if rdErr != nil {
				break
			}
		}
		if rdErr != nil {
			release(blocks)
			errs[0] = fmt.Errorf("hdfsraid: put %q: reading source: %w", name, rdErr)
			break
		}
		if read == 0 {
			release(blocks)
			break // reader exhausted at a stripe boundary
		}
		jobs <- job{ext: ext, stripe: stripe, blocks: blocks}
		if eof || read < limit {
			break // reader exhausted inside this stripe
		}
		if extDone += limit; extBlocks > 0 && extDone == extBlocks {
			ext, extDone, stripe = ext+1, 0, 0
		} else {
			stripe++
		}
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
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
	s.manifest.Files[name] = fi
	if err := s.saveManifest(); err != nil {
		return err
	}
	if s.obs != nil {
		s.obs.bytesIn.Add(int64(total))
	}
	return nil
}
