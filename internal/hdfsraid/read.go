package hdfsraid

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gf256"
)

// BlockSize returns the store's block size.
func (s *Store) BlockSize() int { return s.blockSize }

// CodeName returns the store's default code name — the code new
// ingests land on. Immutable after open.
func (s *Store) CodeName() string { return s.codeName }

// ExtentBlocks returns the ingest extent size in data blocks (0 means
// whole-file extents). Immutable after open, so a peer store created
// with the same value ingests byte-identical layouts.
func (s *Store) ExtentBlocks() int { return s.extentBlocks }

// readKind names the foreground read entry points; it picks the
// latency histograms a finished read lands in.
type readKind int

const (
	readGet readKind = iota
	readBlock
	readAt
)

// admitRead is the one preamble of every foreground read (Get, ReadAt,
// ReadTo, ReadBlockInto), run once the caller has looked the file up
// and validated its request against the layout — and before the read
// cache is consulted, so a hit is counted like any other read. The
// caller holds mu's read side while it reads an extent's blocks, which
// a move's commit waits out before the generation read from is
// reclaimed. It feeds the heat hook with exactly the extents [lo, hi]
// touched, so a ranged read of a large file never warms the rest of it.
func (s *Store) admitRead(name string, lo, hi int) {
	if s.OnReadExtent != nil {
		for e := lo; e <= hi; e++ {
			s.OnReadExtent(name, e)
		}
	}
}

// observeRead records a successful foreground read of n bytes that
// took d: its latency — split by whether any wanted block had to be
// reconstructed instead of copied from a replica — and the bytes served.
func (s *Store) observeRead(kind readKind, d time.Duration, degraded bool, n int) {
	if degraded {
		s.obs.observe(readHists[kind].degraded, d)
		s.obs.add(cReadsDegraded, 1)
	} else {
		s.obs.observe(readHists[kind].intact, d)
	}
	s.obs.add(cBytesOut, int64(n))
}

// stripeRead is one pass of the read ladder over one stripe (see
// readStripe): the stripe's coordinates plus what the pass has learnt
// about its replicas so far.
type stripeRead struct {
	s           *Store
	cc          core.Code
	name        string
	fi          FileInfo
	ext, stripe int
	// dst are the wanted windows: dst[j] takes symbol first+j's part of
	// the run, from byte off of the first (see readStripe).
	first, off int
	dst        [][]byte

	// held are the pooled buffers backing the symbols the decode step
	// keeps until the pass ends.
	held [][]byte
	// bad lists replicas whose read failed with a verdict about their
	// bytes (corrupt or missing, not transient): the heal candidates.
	bad []badReplica
	// down lists the nodes of every failed read — what the read plan
	// must route around.
	down []int
	// lost lists the symbols no replica delivered.
	lost []int
}

type badReplica struct{ sym, v int }

func (r *stripeRead) path(v, sym int) string {
	return r.s.extentBlockPath(v, r.name, r.fi, r.ext, r.stripe, sym)
}

// zero reports whether sym is a known-zero symbol of the stripe: one
// with no replicas, whose content is the store's shared zero block.
func (r *stripeRead) zero(sym int) bool {
	return r.fi.Extents[r.ext].zeroSymbol(r.cc.DataSymbols(), r.stripe, sym)
}

// replica reads bytes [off, off+len(dst)) of sym from its first healthy
// replica into dst and reports whether one was readable; when none is,
// dst holds garbage and sym joins lost. A known-zero symbol is zeros, at
// no read.
func (r *stripeRead) replica(sym int, dst []byte, off int) bool {
	if r.zero(sym) {
		clear(dst)
		return true
	}
	for _, v := range r.cc.Placement().SymbolNodes[sym] {
		err := r.s.readBlockInto(r.path(v, sym), dst, off)
		if err == nil {
			return true
		}
		if !transientReadErr(err) {
			r.bad = append(r.bad, badReplica{sym, v})
		}
		r.down = append(r.down, v)
	}
	r.lost = append(r.lost, sym)
	return false
}

// plan is the ladder's second step: deliver bytes [off, off+len(dst))
// of data symbol sym into dst through the code's partial-parity read
// plan around the nodes known down, computing each payload from the
// same bytes of the blocks on disk at its source node — the codes are
// linear byte by byte, so a window costs its share of every source and
// no more. The plan's decode coefficients come from the code's per-
// erasure-pattern cache, so repeated degraded reads of one failure
// pattern skip the matrix inversion. A plan's source block can itself
// turn out corrupt or missing (latent errors cluster under real fault
// conditions); that is a verdict about its node, so mark the node down
// and re-plan — the loop is bounded because every pass grows down and
// planning fails past the code's tolerance. A term over a known-zero
// symbol contributes nothing and costs no read, so it reports the
// transfers that read a block — the whole plan on a full stripe — or
// false when no plan delivers (the node tolerance is exhausted, or a
// source failed transiently) and the caller falls through to the
// full-stripe decode.
func (r *stripeRead) plan(sym int, dst []byte, off int) (int, bool) {
	payload, data := r.s.payloadPool.Get(), r.s.payloadPool.Get()
	defer r.s.payloadPool.Put(payload)
	defer r.s.payloadPool.Put(data)
	payload, data = payload[:len(dst)], data[:len(dst)]
replan:
	for {
		plan, err := r.cc.PlanRead(sym, r.down, core.OffCluster)
		if err != nil {
			return 0, false
		}
		clear(dst)
		cost := 0
		for i, tr := range plan.Transfers {
			clear(payload)
			read := false
			for _, term := range tr.Terms {
				if r.zero(term.Symbol) {
					continue
				}
				read = true
				if err := r.s.readBlockInto(r.path(tr.From, term.Symbol), data, off); err != nil {
					if transientReadErr(err) {
						return 0, false
					}
					r.down = append(r.down, tr.From)
					continue replan
				}
				gf256.MulAddSlice(term.Coeff, data, payload)
			}
			if !read {
				continue
			}
			cost++
			coeff := byte(1)
			if plan.Coeffs != nil {
				coeff = plan.Coeffs[i]
			}
			gf256.MulAddSlice(coeff, payload, dst)
		}
		return cost, true
	}
}

// decode is the ladder's last step: a full-stripe decode of bytes [lo,
// hi) of every symbol, which succeeds for ANY failure pattern within the
// code's tolerance — a stripe may hold several latent errors at once,
// which the single-erasure read plan cannot route around. symbols holds
// those bytes of the blocks the pass already delivered; every other
// symbol not known lost is read from its first healthy replica, any
// unreadable one being one more erasure to decode; known-zero symbols
// are present without a read. It returns the stripe's data blocks' bytes
// [lo, hi) and the number of blocks it read.
func (r *stripeRead) decode(symbols [][]byte, lo, hi int) ([][]byte, int, error) {
	for sym := range symbols {
		if symbols[sym] != nil || slices.Contains(r.lost, sym) {
			continue
		}
		if r.zero(sym) {
			symbols[sym] = r.s.zeroBlock[:hi-lo]
			continue
		}
		buf := r.s.payloadPool.Get()
		if !r.replica(sym, buf[:hi-lo], lo) {
			r.s.payloadPool.Put(buf)
			continue
		}
		symbols[sym] = buf[:hi-lo]
		r.held = append(r.held, buf)
	}
	data, err := r.cc.Decode(symbols)
	return data, len(r.held), err
}

// readStripe is the store's one block-read path: Get, ReadAt,
// ReadBlockInto, the transcode source and healing's reconstruction all
// deliver blocks through it. It reads a run of one stripe's data bytes
// (extent-local coordinates) — from byte off of data symbol first on,
// through consecutive symbols — into dst, caller-owned buffers: dst[j]
// takes symbol first+j's part of the run, from off in dst[0] and from
// the block's start in the others, to wherever the buffer ends (whole
// blocks are off 0 and BlockSize buffers). No step reads, verifies or
// computes more of any block than those windows (readBlockFile rounds
// them out to checksummed cells). It goes down a three-step ladder, each
// step taken only for what the one before left undelivered:
//
//  1. the first healthy replica of each wanted symbol (cost 0);
//  2. when a single block of the stripe is wanted, the code's partial-
//     parity read plan — the paper's cheap degraded read (see plan);
//  3. a full-stripe decode over the lost symbols' windows, reusing the
//     blocks step 1 delivered that far.
//
// Which of 2 and 3 runs follows from what the call can observe — how
// many blocks it wants and which reads failed — never from a setting.
// cost is the number of block transfers the degraded steps paid (0
// when every wanted block came from a replica). No step opens a file
// for a known-zero symbol of a shortened tail stripe (see
// Extent.zeroSymbol): it is delivered from, planned over and decoded
// as the shared zero block, and costs nothing.
//
// With heal set, every replica that failed with a verdict is repaired
// in place once the read succeeds — from the delivered bytes when they
// are the whole block, through healBlock's own reconstruction when the
// read was a window. Transcode sources and healing's own reconstruction
// pass false: the former hold no store lock for a rewrite to be safe
// under, the latter must not recurse.
//
// readStripe takes no lock and fires no hook; callers hold mu's read
// side (foreground reads, scrub) or the extent's move lock (transcode).
// readRange runs step 1 itself, a block at a time, and the rest of the
// ladder through finish.
func (s *Store) readStripe(cc core.Code, name string, fi FileInfo, ext, stripe, first, off int, dst [][]byte, heal bool) (cost int, err error) {
	r := stripeRead{s: s, cc: cc, name: name, fi: fi, ext: ext, stripe: stripe, first: first, off: off, dst: dst}
	// A replica's payload lands in its destination directly; what a
	// failed read left there, the degraded steps overwrite.
	for j, d := range dst {
		lo, _ := r.window(first + j)
		r.replica(first+j, d, lo)
	}
	return r.finish(heal)
}

// window is the byte range of its block that dst[sym-first] takes.
func (r *stripeRead) window(sym int) (lo, hi int) {
	if sym == r.first {
		lo = r.off
	}
	return lo, lo + len(r.dst[sym-r.first])
}

// finish takes the ladder on from step 1, whose reads of the wanted
// windows left in r what they learnt: it delivers the lost windows
// through the read plan or the decode, then heals.
func (r *stripeRead) finish(heal bool) (cost int, err error) {
	s, first, dst := r.s, r.first, r.dst
	defer func() {
		for _, b := range r.held {
			s.payloadPool.Put(b)
		}
	}()
	lost := r.lost
	var decoded [][]byte
	planned := false
	if len(lost) == 1 && len(dst) == 1 {
		cost, planned = r.plan(first, dst[0], r.off)
	}
	if len(lost) > 0 && !planned {
		// Decode the hull of the lost windows, from the delivered blocks
		// whose window covers it and a fresh read of every other.
		lo, hi := s.blockSize, 0
		for _, sym := range lost {
			l, h := r.window(sym)
			lo, hi = min(lo, l), max(hi, h)
		}
		symbols := make([][]byte, r.cc.Symbols())
		for j, d := range dst {
			if l, h := r.window(first + j); l <= lo && h >= hi && !slices.Contains(lost, first+j) {
				symbols[first+j] = d[lo-l : hi-l]
			}
		}
		if decoded, cost, err = r.decode(symbols, lo, hi); err != nil {
			return 0, fmt.Errorf("hdfsraid: decoding %q extent %d stripe %d: %w", r.name, r.ext, r.stripe, err)
		}
		for _, sym := range lost {
			l, h := r.window(sym)
			copy(dst[sym-first], decoded[sym][l-lo:h-lo])
		}
	}
	if !heal {
		return cost, nil
	}
	for _, b := range r.bad {
		// Wanted and decoded data blocks heal from the bytes in hand when
		// those are the whole block; any other replica reconstructs
		// inside healBlock.
		var content []byte
		switch {
		case b.sym >= first && b.sym < first+len(dst):
			content = dst[b.sym-first]
		case b.sym < len(decoded):
			content = decoded[b.sym]
		}
		if len(content) != s.blockSize {
			content = nil
		}
		if s.healBlock(r.cc, r.name, r.fi, r.ext, r.stripe, b.sym, b.v, content) == nil {
			s.obs.add(cReadHeal, 1)
		}
	}
	return cost, nil
}

// Get reads a file back, decoding around missing or corrupt blocks as
// long as each stripe remains within the code's erasure tolerance. An
// intact stripe costs its k data-block reads; parity replicas are read
// only to decode around a lost data block, so latent parity damage is
// the scrubber's to find, as it is for ReadAt.
func (s *Store) Get(name string) ([]byte, error) {
	start := s.obs.now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	fi, ok := s.manifest.Files[name]
	if !ok {
		return nil, fmt.Errorf("hdfsraid: %w %q", ErrNotFound, name)
	}
	s.admitRead(name, 0, len(fi.Extents)-1)
	out := makeNoZero(fi.Length)
	degraded, err := s.readInto(name, fi, out, 0)
	if err != nil {
		return nil, err
	}
	s.observeRead(readGet, s.obs.lap(start), degraded, len(out))
	return out, nil
}

// SetReadCache attaches a cache (nil: none) that Get, ReadAt and ReadTo
// serve hits from and fill; stores may share one. Set it before serving.
func (s *Store) SetReadCache(c *ReadCache) { s.cache = c }

// extentAt returns the extent holding byte off of the file, and where
// the part of [off, end) inside that extent ends.
func (s *Store) extentAt(fi FileInfo, off, end int64) (ext int, hi int64) {
	bs := int64(s.blockSize)
	ext = extentOf(fi, int(off/bs))
	return ext, min(end, int64(fi.Extents[ext].Start+fi.Extents[ext].Blocks)*bs)
}

// readInto fills p with the file's bytes from offset off for Get and
// ReadAt: extents the read cache holds are copied out of it, and every
// run of extents it does not hold is one readRange — all the run's
// stripes in flight at once — whose extents are then offered to the
// cache. No cache holds nothing, so the whole read is one run.
func (s *Store) readInto(name string, fi FileInfo, p []byte, off int64) (degraded bool, err error) {
	id, base, end := s.manifest.ids[name], off, off+int64(len(p))
	// missed reads [from, to), a run of extents the cache did not hold.
	missed := func(from, to int64) error {
		deg, err := s.readRange(name, fi, p[from-base:to-base], from)
		degraded = degraded || deg
		for err == nil && from < to {
			ext, hi := s.extentAt(fi, from, to)
			s.offerExtent(name, fi, id, ext, from, hi, p[from-base:hi-base], false)
			from = hi
		}
		return err
	}
	run := off // where the current run of misses began
	for off < end {
		ext, hi := s.extentAt(fi, off, end)
		if data := s.cachedExtent(fi, id, ext, off, hi); data != nil {
			if err := missed(run, off); err != nil {
				return false, err
			}
			copy(p[off-base:], data)
			run = hi
		}
		off = hi
	}
	return degraded, missed(run, end)
}

// cachedExtent returns bytes [lo, hi) of the file, which lie inside
// extent ext of the entry with identity id, when the read cache holds
// that extent (the cached slice itself, not to be modified), else nil.
// The caller holds mu's read side, has admitted the read and looked id
// up under the same hold: all a hit needs to be right (see extentKey).
func (s *Store) cachedExtent(fi FileInfo, id uint64, ext int, lo, hi int64) []byte {
	data := s.cache.get(extentKey{id, ext})
	if data != nil {
		s.obs.add(cCacheHits, 1)
		start := int64(fi.Extents[ext].Start) * int64(s.blockSize)
		data = data[lo-start : hi-start]
	}
	return data
}

// offerExtent tells the read cache of a miss that read bytes [lo, hi)
// of extent ext from the blocks into data: only a miss that read the
// whole extent is offered, so no read is amplified to fill the cache,
// and only an extent read before is admitted — its heat, this read's
// own touch counted in, is above 1 — so one scan of cold data evicts
// nothing. The cache takes data itself when owned and a copy of it
// otherwise.
func (s *Store) offerExtent(name string, fi FileInfo, id uint64, ext int, lo, hi int64, data []byte, owned bool) {
	if s.cache == nil {
		return
	}
	s.obs.add(cCacheMisses, 1)
	e, bs := fi.Extents[ext], int64(s.blockSize)
	start, end := int64(e.Start)*bs, min(int64(e.Start+e.Blocks)*bs, int64(fi.Length))
	key := extentKey{id, ext}
	if lo == start && hi == end && (s.Heat == nil || s.Heat(name, ext) > 1) && s.cache.admit(key, hi-lo) {
		if !owned {
			data = bytes.Clone(data)
		}
		s.obs.add(cCacheFills, 1)
		s.obs.add(cCacheEvictions, int64(s.cache.add(key, data)))
		s.obs.cacheLevel(s.cache)
	}
}

// clipRange resolves a requested byte range against a file's length:
// off < 0 counts back from the end, n < 0 or too long runs to the end.
func clipRange(length, off, n int64) (lo, hi int64) {
	if off < 0 {
		off, n = max(length+off, 0), -1
	}
	if off = min(off, length); n < 0 || n > length-off {
		return off, length
	}
	return off, off + n
}

// ReadTo writes bytes [off, off+n) of a stored file (clipped as
// clipRange says) to w, one extent at a time: the serving front door's
// read path. Each extent is looked up, admitted and produced — the
// cache's own slice on a hit, a buffer the cache may take over on a
// miss — under mu's read side and written only after the lock is
// released, so a slow w delays no writer. Once the first extent's bytes
// are in hand — whatever can fail before a byte is sent has — begin,
// if not nil, learns the file's length and the range about to be
// written; its error ends the read. An entry deleted or replaced
// between two extents fails the read: two entries' bytes are never
// spliced. An empty range reads nothing and records nothing; the
// latency recorded otherwise leaves the writes out.
func (s *Store) ReadTo(w io.Writer, name string, off, n int64, begin func(length, off, n int64) error) (written int64, err error) {
	var (
		id          uint64 // the entry's identity, pinned by the first step
		length, end int64
		busy        time.Duration
		degraded    bool
	)
	// step produces the bytes of the extent holding off.
	step := func(first bool) ([]byte, error) {
		t := s.obs.now()
		s.mu.RLock()
		defer s.mu.RUnlock()
		fi, ok := s.manifest.Files[name]
		switch {
		case !ok && first:
			return nil, fmt.Errorf("hdfsraid: %w %q", ErrNotFound, name)
		case !first && (!ok || s.manifest.ids[name] != id):
			return nil, fmt.Errorf("hdfsraid: %q was deleted or replaced mid-read", name)
		case first:
			id, length = s.manifest.ids[name], int64(fi.Length)
			if off, end = clipRange(length, off, n); off == end {
				return nil, nil
			}
		}
		ext, hi := s.extentAt(fi, off, end)
		if first {
			last, _ := s.extentAt(fi, end-1, end)
			s.admitRead(name, ext, last)
		}
		chunk := s.cachedExtent(fi, id, ext, off, hi)
		if chunk == nil {
			chunk = makeNoZero(int(hi - off))
			deg, err := s.readRange(name, fi, chunk, off)
			if err != nil {
				return nil, fmt.Errorf("hdfsraid: reading %q bytes %d-%d: %w", name, off, hi-1, err)
			}
			degraded = degraded || deg
			s.offerExtent(name, fi, id, ext, off, hi, chunk, true)
		}
		busy += s.obs.lap(t)
		return chunk, nil
	}
	for first := true; first || off < end; first = false {
		chunk, err := step(first)
		if err == nil && first && begin != nil {
			err = begin(length, off, end-off)
		}
		if err != nil || off == end {
			return written, err
		}
		m, err := w.Write(chunk)
		written, off = written+int64(m), off+int64(m)
		if err != nil {
			return written, err
		}
	}
	kind := readAt
	if written == length {
		kind = readGet
	}
	s.observeRead(kind, busy, degraded, int(written))
	return written, nil
}

// readRange fills p with the file's bytes from offset off, reporting
// whether any block was read degraded; the caller has admitted the
// read and clipped p to the file's length. The ladder's step 1 is
// per-byte work — page-cache copies and CRCs — so every block the range
// touches, in whatever stripe, is one index for parallel's GOMAXPROCS
// workers, learning into a stripeRead of its own; a one-block range
// runs inline. A stripe whose blocks' reads lost or misread one then
// goes on down the ladder once, over the union of what they learnt, so
// a lost block decodes from the blocks its stripe already delivered.
// Every block's part of the range is read straight into its place in p
// — a whole-file read allocates no block buffer beyond the caller's,
// and a range that starts or ends inside a block reads that block from
// there or to there, not whole. Extent tail padding is never read.
func (s *Store) readRange(name string, fi FileInfo, p []byte, off int64) (bool, error) {
	if len(p) == 0 {
		return false, nil
	}
	bs, end := int64(s.blockSize), off+int64(len(p))
	g0 := off / bs
	reads := make([]stripeRead, (end-1)/bs-g0+1)
	err := parallel(len(reads), func(i int) error {
		g, start := int(g0)+i, (g0+int64(i))*bs
		ext := extentOf(fi, g)
		e := fi.Extents[ext]
		cc, err := s.codecByName(e.Code)
		if err != nil {
			return err
		}
		k, l := cc.DataSymbols(), g-e.Start
		dst, lo := p[max(start, off)-off:min(start+bs, end)-off], int(max(off-start, 0))
		reads[i] = stripeRead{s: s, cc: cc, name: name, fi: fi, ext: ext, stripe: l / k, first: l % k, off: lo, dst: [][]byte{dst}}
		reads[i].replica(l%k, dst, lo)
		return nil
	})
	if err != nil {
		return false, err
	}
	var stripes []stripeRead // one per stripe: its blocks' reads, merged
	for _, r := range reads {
		if n := len(stripes) - 1; n >= 0 && stripes[n].ext == r.ext && stripes[n].stripe == r.stripe {
			m := &stripes[n]
			m.dst, m.lost = append(m.dst, r.dst...), append(m.lost, r.lost...)
			m.bad, m.down = append(m.bad, r.bad...), append(m.down, r.down...)
		} else {
			stripes = append(stripes, r)
		}
	}
	stripes = slices.DeleteFunc(stripes, func(r stripeRead) bool { return len(r.lost)+len(r.bad) == 0 })
	var degraded atomic.Bool
	err = parallel(len(stripes), func(i int) error {
		cost, err := stripes[i].finish(true)
		if cost > 0 {
			degraded.Store(true)
		}
		return err
	})
	return degraded.Load(), err
}

// ReadBlockInto serves one data block of a stored file into dst, a
// buffer of exactly BlockSize bytes, the way a degraded map task would:
// a live replica first, then — if both replicas are unreadable —
// through the code's partial-parity read plan, computing each payload
// from the blocks actually on disk at its source node, then whatever
// the stripe can still decode. It returns the number of block-unit
// transfers the read cost (0 for a healthy replica read); with the
// store's frame and payload pools it moves block payloads with zero
// allocations per read. The stripe index is file-global: extent stripe
// sets are concatenated in extent order, so (stripe, symbol) addresses
// the same data block it did before the file grew an extent map.
func (s *Store) ReadBlockInto(dst []byte, name string, stripe, symbol int) (int, error) {
	start := s.obs.now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(dst) != s.blockSize {
		return 0, fmt.Errorf("hdfsraid: ReadBlockInto needs a %d-byte buffer, got %d", s.blockSize, len(dst))
	}
	fi, ok := s.manifest.Files[name]
	if !ok {
		return 0, fmt.Errorf("hdfsraid: %w %q", ErrNotFound, name)
	}
	ext, local, ok := locateStripe(fi, stripe)
	if !ok {
		return 0, fmt.Errorf("hdfsraid: stripe %d out of range", stripe)
	}
	cc, err := s.codecByName(fi.Extents[ext].Code)
	if err != nil {
		return 0, err
	}
	if symbol < 0 || symbol >= cc.DataSymbols() {
		return 0, fmt.Errorf("hdfsraid: symbol %d is not a data symbol", symbol)
	}
	s.admitRead(name, ext, ext)
	cost, err := s.readStripe(cc, name, fi, ext, local, symbol, 0, [][]byte{dst}, true)
	if err != nil {
		return 0, err
	}
	s.observeRead(readBlock, s.obs.lap(start), cost > 0, len(dst))
	return cost, nil
}
