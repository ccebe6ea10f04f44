package hdfsraid

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

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
// writing every stored symbol's replicas to their placement nodes
// (writeStripe), without a caller-materialized byte slice. With
// extents enabled (CreateExt) the file is split into extent-sized
// runs, each striped independently so it can later change tier on its
// own. The data plane streams: a sequential producer reads one
// stripe's data blocks at a time into pooled buffers (closing each
// stripe at the extent boundary), and up to GOMAXPROCS stripes
// encode and write concurrently behind it. Peak memory
// is O(workers × stripe), independent of the file's length — the
// ingest-side counterpart of the streaming transcode pipeline. The
// file's length and extent map are recorded when the reader is
// exhausted.
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
	k := s.code.DataSymbols()
	extBlocks := s.extentBlocks
	cc := codec{s.code, s.striper}
	if err := s.ensureNodeDirs(cc.code.Nodes()); err != nil {
		return err
	}

	// A job's first live blocks are pooled payload buffers holding the
	// stripe's data; the rest alias the store's read-only zero block.
	type job struct {
		ext, stripe, live int
		blocks            [][]byte
	}
	release := func(j job) {
		for _, b := range j.blocks[:j.live] {
			s.payloadPool.Put(b)
		}
	}
	// inflight bounds the stripes (and their pooled buffers) being
	// encoded and written behind the producer; the first error, from
	// the source or any stripe, stops the stream.
	inflight := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	var failed atomic.Pointer[error]
	fail := func(err error) { failed.CompareAndSwap(nil, &err) }
	encode := func(j job) {
		defer func() {
			release(j)
			<-inflight
			wg.Done()
		}()
		symbols, rel, err := core.EncodeWith(cc.code, s.payloadPool, j.blocks)
		if err == nil {
			e := Extent{Blocks: j.stripe*k + j.live} // the extent as ingested so far
			err = s.writeStripe(cc, name, extBlocks > 0, j.ext, e, j.stripe, symbols)
			rel()
		}
		if err != nil {
			fail(fmt.Errorf("hdfsraid: put %q extent %d stripe %d: %w", name, j.ext, j.stripe, err))
		}
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
	for failed.Load() == nil {
		// A stripe holds k data blocks but never crosses an extent
		// boundary: the capacity left in the current extent caps how
		// many carry data, and the rest are known zeros — the shared
		// zero block, which EncodeInto only reads.
		limit := k
		if extBlocks > 0 && extBlocks-extDone < k {
			limit = extBlocks - extDone
		}
		j := job{ext: ext, stripe: stripe, blocks: make([][]byte, k)}
		eof := false
		var rdErr error
		for i := range j.blocks {
			j.blocks[i] = s.zeroBlock
			if i >= limit || eof || rdErr != nil {
				continue
			}
			buf := s.payloadPool.Get()
			var n int
			if n, eof, rdErr = fillBlock(buf); n == 0 {
				s.payloadPool.Put(buf)
				continue
			}
			total += n
			j.blocks[i] = buf
			j.live++
		}
		if rdErr != nil {
			release(j)
			fail(fmt.Errorf("hdfsraid: put %q: reading source: %w", name, rdErr))
			break
		}
		if j.live == 0 {
			break // reader exhausted at a stripe boundary
		}
		inflight <- struct{}{}
		wg.Add(1)
		go encode(j)
		if eof || j.live < limit {
			break // reader exhausted inside this stripe
		}
		if extDone += limit; extBlocks > 0 && extDone == extBlocks {
			ext, extDone, stripe = ext+1, 0, 0
		} else {
			stripe++
		}
	}
	wg.Wait()
	if err := failed.Load(); err != nil {
		return *err
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

// writeStripe is the store's one layout-block write path, the mirror
// of readStripe: PutReader's stripes and the transcode emit both hand
// it one encoded stripe, and it writes every replica of every symbol
// to its placement node under its final name. e is the extent the
// stripe belongs to (Blocks and Gen are consulted): its known-zero
// symbols — the tail stripe's data symbols past the last block — are
// elided, so no replica of them ever exists for a reader, scrub or
// repair to visit.
func (s *Store) writeStripe(cc codec, name string, extPaths bool, ext int, e Extent, stripe int, symbols [][]byte) error {
	k, symbolNodes := cc.code.DataSymbols(), cc.code.Placement().SymbolNodes
	for sym, buf := range symbols {
		if e.zeroSymbol(k, stripe, sym) {
			s.obs.add(cZeroElided, 1)
			continue
		}
		base := blockName(name, extPaths, ext, e.Gen, stripe, sym)
		for _, v := range symbolNodes[sym] {
			if err := s.writeBlock(filepath.Join(s.nodeDir(v), base), buf); err != nil {
				return err
			}
		}
	}
	return nil
}
