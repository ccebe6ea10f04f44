package hdfsraid

import (
	"fmt"
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
// ReadBlockInto), run once the caller has looked the file up and
// validated its request against the layout. The caller holds mu's read
// side for the whole read, so a concurrent transcode's block swap can
// never be observed half-done; admitRead refuses any touched extent
// [lo, hi] that is mid-swap in the journal, then feeds the heat hooks
// with exactly the extents touched, so a ranged read of a large file
// never warms the rest of it.
func (s *Store) admitRead(name string, lo, hi int) error {
	for e := lo; e <= hi; e++ {
		if s.pendingSwapLocked(name, e) {
			return fmt.Errorf("hdfsraid: %q extent %d is mid-swap in the journal; run Recover", name, e)
		}
	}
	if s.OnRead != nil {
		s.OnRead(name)
	}
	if s.OnReadExtent != nil {
		for e := lo; e <= hi; e++ {
			s.OnReadExtent(name, e)
		}
	}
	return nil
}

// observeRead records a successful foreground read of n bytes begun at
// start: its latency — split by whether any wanted block had to be
// reconstructed instead of copied from a replica — and the bytes served.
func (s *Store) observeRead(kind readKind, start time.Time, degraded bool, n int) {
	if degraded {
		s.obs.since(readHists[kind].degraded, start)
		s.obs.add(cReadsDegraded, 1)
	} else {
		s.obs.since(readHists[kind].intact, start)
	}
	s.obs.add(cBytesOut, int64(n))
}

// stripeRead is one pass of the read ladder over one stripe (see
// readStripe): the stripe's coordinates plus what the pass has learnt
// about its replicas so far.
type stripeRead struct {
	s           *Store
	cc          codec
	name        string
	fi          FileInfo
	ext, stripe int

	// frame is the one pooled block frame behind every read whose
	// payload is copied out at once; held are the frames backing the
	// symbols the decode step keeps until the pass ends.
	frame []byte
	held  [][]byte
	// bad lists replicas whose read failed with a verdict about their
	// bytes (corrupt or missing, not transient): the heal candidates.
	bad []badReplica
	// down lists the nodes of every failed read — what the read plan
	// must route around.
	down []int
}

type badReplica struct{ sym, v int }

func (r *stripeRead) path(v, sym int) string {
	return r.s.extentBlockPath(v, r.name, r.fi, r.ext, r.stripe, sym)
}

// zero reports whether sym is a known-zero symbol of the stripe: one
// with no replicas, whose content is the store's shared zero block.
func (r *stripeRead) zero(sym int) bool {
	return r.fi.Extents[r.ext].zeroSymbol(r.cc.code.DataSymbols(), r.stripe, sym)
}

// replica reads the first healthy replica of sym into frame and
// returns its payload (aliasing frame), or nil when none is readable.
// A known-zero symbol is the read-only zero block, at no read.
func (r *stripeRead) replica(sym int, frame []byte) []byte {
	if r.zero(sym) {
		return r.s.zeroBlock
	}
	for _, v := range r.cc.code.Placement().SymbolNodes[sym] {
		data, err := r.s.readBlockInto(r.path(v, sym), frame)
		if err == nil {
			return data
		}
		if !transientReadErr(err) {
			r.bad = append(r.bad, badReplica{sym, v})
		}
		r.down = append(r.down, v)
	}
	return nil
}

// plan is the ladder's second step: deliver data symbol sym into dst
// through the code's partial-parity read plan around the nodes known
// down, computing each payload from the blocks on disk at its source
// node. The plan's decode coefficients come from the code's per-
// erasure-pattern cache, so repeated degraded reads of one failure
// pattern skip the matrix inversion. A plan's source block can itself
// turn out corrupt or missing (latent errors cluster under real fault
// conditions); that is a verdict about its node, so mark the node down
// and re-plan — the loop is bounded because every pass grows down and
// planning fails past the code's tolerance. A term over a known-zero
// symbol contributes nothing and costs no read, so it reports the
// transfers that read a block — the whole plan on a full stripe — or
// false when no plan delivers (the code cannot plan reads, the node
// tolerance is exhausted, or a source failed transiently) and the
// caller falls through to the full-stripe decode.
func (r *stripeRead) plan(sym int, dst []byte) (int, bool) {
	rp, ok := r.cc.code.(core.ReadPlanner)
	if !ok {
		return 0, false
	}
	payload := r.s.payloadPool.Get()
	defer r.s.payloadPool.Put(payload)
replan:
	for {
		plan, err := rp.PlanRead(sym, r.down, core.OffCluster)
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
				data, err := r.s.readBlockInto(r.path(tr.From, term.Symbol), r.frame)
				if err != nil {
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

// decode is the ladder's last step: a full-stripe decode, which
// succeeds for ANY failure pattern within the code's tolerance — a
// stripe may hold several latent errors at once, which the single-
// erasure read plan cannot route around. symbols holds the blocks the
// pass already delivered; every other symbol outside the wanted range
// [first, first+n) (a wanted symbol still nil has no readable replica
// left) is read from its first healthy replica, any unreadable one
// being one more erasure to decode; known-zero symbols are present
// without a read. It returns the stripe's data blocks and the number
// of blocks it read.
func (r *stripeRead) decode(symbols [][]byte, first, n int) ([][]byte, int, error) {
	for sym := range symbols {
		if sym >= first && sym < first+n {
			continue
		}
		if r.zero(sym) {
			symbols[sym] = r.s.zeroBlock
			continue
		}
		frame := r.s.framePool.Get()
		if symbols[sym] = r.replica(sym, frame); symbols[sym] == nil {
			r.s.framePool.Put(frame)
			continue
		}
		r.held = append(r.held, frame)
	}
	data, err := r.cc.code.Decode(symbols)
	return data, len(r.held), err
}

// readStripe is the store's one block-read path: Get, ReadAt,
// ReadBlockInto, the transcode source and healing's reconstruction all
// deliver blocks through it. It reads data symbols [first,
// first+len(dst)) of one stripe (extent-local coordinates) into dst —
// caller-owned buffers of exactly BlockSize bytes — down a three-step
// ladder, each step taken only for what the one before left
// undelivered:
//
//  1. the first healthy replica of each wanted symbol (cost 0);
//  2. when a single block of the stripe is wanted, the code's partial-
//     parity read plan — the paper's cheap degraded read (see plan);
//  3. a full-stripe decode reusing the blocks step 1 delivered.
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
// in place from the delivered bytes once the read succeeds. Transcode
// sources and healing's own reconstruction pass false: the former must
// not rewrite old-layout blocks mid-move, the latter must not recurse.
//
// readStripe takes no lock and fires no hook; callers hold mu's read
// side (foreground reads, scrub) or the extent's move lock (transcode).
func (s *Store) readStripe(cc codec, name string, fi FileInfo, ext, stripe, first int, dst [][]byte, heal bool) (cost int, err error) {
	r := stripeRead{s: s, cc: cc, name: name, fi: fi, ext: ext, stripe: stripe, frame: s.framePool.Get()}
	defer func() {
		s.framePool.Put(r.frame)
		for _, f := range r.held {
			s.framePool.Put(f)
		}
	}()

	var lost []int // indices into dst no replica delivered
	for j, d := range dst {
		if data := r.replica(first+j, r.frame); data != nil {
			copy(d, data)
		} else {
			lost = append(lost, j)
		}
	}
	var decoded [][]byte
	planned := false
	if len(lost) == 1 && len(dst) == 1 {
		cost, planned = r.plan(first, dst[0])
	}
	if len(lost) > 0 && !planned {
		symbols := make([][]byte, cc.code.Symbols())
		copy(symbols[first:], dst)
		for _, j := range lost {
			symbols[first+j] = nil
		}
		if decoded, cost, err = r.decode(symbols, first, len(dst)); err != nil {
			return 0, fmt.Errorf("hdfsraid: decoding %q extent %d stripe %d: %w", name, ext, stripe, err)
		}
		for _, j := range lost {
			copy(dst[j], decoded[first+j])
		}
	}
	if !heal {
		return cost, nil
	}
	for _, b := range r.bad {
		// Wanted and decoded data blocks heal from the bytes in hand;
		// any other replica reconstructs inside healBlock.
		var content []byte
		switch {
		case b.sym >= first && b.sym < first+len(dst):
			content = dst[b.sym-first]
		case b.sym < len(decoded):
			content = decoded[b.sym]
		}
		if s.healBlock(cc, name, fi, ext, stripe, b.sym, b.v, content) == nil {
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
	if err := s.admitRead(name, 0, len(fi.Extents)-1); err != nil {
		return nil, err
	}
	out := make([]byte, fi.Length)
	degraded, err := s.readRange(name, fi, out, 0)
	if err != nil {
		return nil, err
	}
	s.observeRead(readGet, start, degraded, len(out))
	return out, nil
}

// readRange fills p with the file's bytes from offset off, reporting
// whether any block was read degraded; the caller has admitted the
// read and clipped p to the file's length. Stripes are independent, so
// the ones the range touches are drained through readStripe by a
// worker pool — the widest calibrated decode fan-out among the codes
// they use, GOMAXPROCS uncalibrated; a range inside one stripe runs
// inline. Blocks wholly inside the range land in p directly — a whole-
// file read's only steady-state allocation is the caller's buffer —
// while the range's edge blocks (and the file's short tail block) go
// through a pooled buffer and are cut to fit. Extent tail padding is
// never read.
func (s *Store) readRange(name string, fi FileInfo, p []byte, off int64) (bool, error) {
	if len(p) == 0 {
		return false, nil
	}
	bs, end := int64(s.blockSize), off+int64(len(p))
	// One job per stripe: the run of wanted file-global data blocks
	// [g, g+run) it holds.
	type stripeJob struct {
		cc          codec
		ext, g, run int
	}
	var jobs []stripeJob
	workers := 0
	for g, last := int(off/bs), int((end-1)/bs); g <= last; {
		ext := extentOf(fi, g)
		e := fi.Extents[ext]
		cc, err := s.codecByName(e.Code)
		if err != nil {
			return false, err
		}
		k, l := cc.code.DataSymbols(), g-e.Start
		run := min(k-l%k, e.Blocks-l, last-g+1)
		jobs = append(jobs, stripeJob{cc, ext, g, run})
		workers = max(workers, s.decodeWorkersFor(cc.code.Name()))
		g += run
	}
	var degraded atomic.Bool
	err := parallel(len(jobs), workers, func(i int) error {
		j := jobs[i]
		k, l := j.cc.code.DataSymbols(), j.g-fi.Extents[j.ext].Start
		inside := func(b int) bool {
			start := int64(j.g+b) * bs
			return start >= off && start+bs <= end
		}
		dst := make([][]byte, j.run)
		for b := range dst {
			if start := int64(j.g+b)*bs - off; inside(b) {
				dst[b] = p[start : start+bs]
			} else {
				dst[b] = s.payloadPool.Get()
			}
		}
		cost, err := s.readStripe(j.cc, name, fi, j.ext, l/k, l%k, dst, true)
		for b, buf := range dst {
			if inside(b) {
				continue
			}
			// Copy the slice of the block that intersects the range.
			start := int64(j.g+b) * bs
			copy(p[max(start-off, 0):], buf[max(off-start, 0):min(end-start, bs)])
			s.payloadPool.Put(buf)
		}
		if cost > 0 {
			degraded.Store(true)
		}
		return err
	})
	return degraded.Load(), err
}

// ReadBlock serves one data block of a stored file the way a degraded
// map task would: a live replica first, then — if both replicas are
// unreadable — through the code's partial-parity read plan, computing
// each payload from the blocks actually on disk at its source node,
// then whatever the stripe can still decode. It returns the block
// bytes and the number of block-unit transfers the read cost (0 for a
// healthy replica read).
func (s *Store) ReadBlock(name string, stripe, symbol int) ([]byte, int, error) {
	dst := make([]byte, s.BlockSize())
	cost, err := s.ReadBlockInto(dst, name, stripe, symbol)
	if err != nil {
		return nil, 0, err
	}
	return dst, cost, nil
}

// ReadBlockInto is ReadBlock into a caller-provided buffer of exactly
// BlockSize bytes — the steady-state read path, which together with the
// store's frame and payload pools moves block payloads with zero
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
	if symbol < 0 || symbol >= cc.code.DataSymbols() {
		return 0, fmt.Errorf("hdfsraid: symbol %d is not a data symbol", symbol)
	}
	if err := s.admitRead(name, ext, ext); err != nil {
		return 0, err
	}
	cost, err := s.readStripe(cc, name, fi, ext, local, symbol, [][]byte{dst}, true)
	if err != nil {
		return 0, err
	}
	s.observeRead(readBlock, start, cost > 0, len(dst))
	return cost, nil
}
