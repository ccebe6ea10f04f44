package hdfsraid

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// pendingStripe is one stripe on its way through writeStripes: where
// it goes and its k data blocks, of which the first live are pooled
// buffers the fill loaded and the rest the store's shared zero block
// (known zeros, which EncodeInto only reads).
type pendingStripe struct {
	ext, stripe, live int
	blocks            [][]byte
}

// writeStripes is the store's one encode→write pipeline, under ingest
// (PutReader) and tier moves (TranscodeExtentAt) alike. fill loads the
// next stripe — one at a time, in order — and reports whether another
// follows; a stripe it leaves without a live block ends the stream
// unwritten. Behind it up to GOMAXPROCS stripes encode under the named
// code and write every replica under generation gen (writeStripe)
// concurrently, so peak memory is O(GOMAXPROCS × stripe) whatever the
// stream's length. A move (gen > 0; an ingest writes generation 0)
// also times its stages: the fill, the encode and the write.
//
// The first error — from fill, an encode or a write — stops the
// stream, and once the stripes in flight drain every replica the
// stream wrote is removed: a failed writer leaves nothing behind.
func (s *Store) writeStripes(codeName, name string, extPaths bool, gen int, fill func(p *pendingStripe) (more bool, err error)) error {
	code, err := s.codecByName(codeName)
	if err != nil {
		return err
	}
	k := code.DataSymbols()
	timed := gen > 0
	var (
		wg     sync.WaitGroup
		failed atomic.Pointer[error]
		// wrote is, per extent, the layout of the stripes dispatched so
		// far: what the cleanup removes.
		wrote []Extent
	)
	fail := func(err error) { failed.CompareAndSwap(nil, &err) }
	release := func(p pendingStripe) {
		for _, b := range p.blocks[:p.live] {
			s.payloadPool.Put(b)
		}
	}
	inflight := make(chan struct{}, runtime.GOMAXPROCS(0))
	write := func(p pendingStripe) {
		defer func() {
			release(p)
			<-inflight
			wg.Done()
		}()
		t0 := s.obs.now()
		symbols, rel, err := core.EncodeWith(code, s.payloadPool, p.blocks)
		if err == nil {
			if timed {
				t0 = s.obs.since(hTcEncode, t0)
			}
			// The extent as written so far: its known-zero symbols are
			// those of this stripe past its last live block.
			e := Extent{Blocks: p.stripe*k + p.live, Gen: gen}
			err = s.writeStripe(code, name, extPaths, p.ext, e, p.stripe, symbols)
			if timed {
				s.obs.since(hTcWrite, t0)
			}
			rel()
		}
		if err != nil {
			fail(fmt.Errorf("extent %d stripe %d: %w", p.ext, p.stripe, err))
		}
	}

	for more := true; more && failed.Load() == nil; {
		p := pendingStripe{blocks: make([][]byte, k)}
		for i := range p.blocks {
			p.blocks[i] = s.zeroBlock
		}
		t0 := s.obs.now()
		if more, err = fill(&p); err != nil || p.live == 0 {
			release(p)
			if err != nil {
				fail(err)
			}
			break
		}
		if timed {
			s.obs.since(hTcRead, t0)
		}
		for len(wrote) <= p.ext {
			wrote = append(wrote, Extent{Code: codeName, Gen: gen})
		}
		wrote[p.ext].Blocks, wrote[p.ext].Stripes = p.stripe*k+p.live, p.stripe+1
		inflight <- struct{}{}
		wg.Add(1)
		go write(p)
	}
	wg.Wait()
	if err := failed.Load(); err != nil {
		fi := FileInfo{Extents: wrote, ExtentPaths: extPaths}
		for ext := range wrote {
			s.reclaim(name, fi, ext)
		}
		return *err
	}
	return nil
}

// writeStripe is the store's one layout-block write path, the mirror
// of readStripe: writeStripes hands it one encoded stripe, and it
// writes every replica of every symbol to its placement node under its
// final name. e is the extent the stripe belongs to (Blocks and Gen are
// consulted): its known-zero symbols — the tail stripe's data symbols
// past the last block — are elided, so no replica of them ever exists
// for a reader, scrub or repair to visit.
func (s *Store) writeStripe(cc core.Code, name string, extPaths bool, ext int, e Extent, stripe int, symbols [][]byte) error {
	k, symbolNodes := cc.DataSymbols(), cc.Placement().SymbolNodes
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
