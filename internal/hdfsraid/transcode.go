package hdfsraid

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/obs"
)

// TranscodeReport summarizes one online transcode (of a whole file or
// a single extent).
type TranscodeReport struct {
	From, To       string // code names
	Extents        int    // extents moved
	Stripes        int    // stripes written under the new code
	BlocksWritten  int    // physical block replicas written
	BlocksRemoved  int    // old block replicas deleted
	DataBlocksRead int    // data blocks recovered from the old code
}

// add folds one extent move's counters into an aggregate report.
func (r *TranscodeReport) add(o TranscodeReport) {
	r.Extents += o.Extents
	r.Stripes += o.Stripes
	r.BlocksWritten += o.BlocksWritten
	r.BlocksRemoved += o.BlocksRemoved
	r.DataBlocksRead += o.DataBlocksRead
}

// moveKey names the per-move lock for one extent of one file.
func moveKey(name string, ext int) string {
	return fmt.Sprintf("%s\x00%d", name, ext)
}

// Transcode re-encodes a stored file from its current code(s) to the
// named registered code without losing data, extent by extent: each
// extent not already on the target runs through TranscodeExtent, so a
// partially tiered file converges and a crash costs at most the
// in-flight extent's move. The report aggregates every extent moved;
// From is the first moved extent's source code.
func (s *Store) Transcode(name, codeName string) (TranscodeReport, error) {
	newCC, err := s.codecByName(codeName)
	if err != nil {
		return TranscodeReport{}, err
	}
	exts, ok := s.Extents(name)
	if !ok {
		return TranscodeReport{}, fmt.Errorf("hdfsraid: %w %q", ErrNotFound, name)
	}
	rep := TranscodeReport{To: newCC.Name()}
	for i := range exts {
		extRep, err := s.TranscodeExtent(name, i, codeName)
		if err != nil {
			return rep, err
		}
		if rep.From == "" {
			rep.From = extRep.From
		}
		rep.add(extRep)
	}
	return rep, nil
}

// TranscodeExtent re-encodes one extent of a stored file from its
// current code to the named registered code without losing data: the
// extent's data blocks are recovered through the old code's (possibly
// degraded) read path, re-striped and re-encoded under the new code. It
// is the move primitive of the hot/cold tiering layer at extent
// granularity: only the target extent's stripes move, so promoting the
// hot head of a large cold file costs the head, not the file.
//
// The data plane streams through the store's one stripe writer
// (writeStripes), the pipeline PutReader runs: both codes stripe the
// extent at the store's block size, so extent-local data block l under
// the new layout is exactly data block l under the old one, and the
// fill reads each new stripe's blocks in turn through the old code's
// read ladder (readStripe) into pooled buffers, with up to GOMAXPROCS
// stripes encoding and writing behind it. Peak memory is O(stripes in
// flight), never O(extent), so a rebalance scan can move arbitrarily
// large extents without ballooning the process; a failed read, encode
// or write leaves none of the next generation behind.
//
// The move is copy-on-write: write new, commit one record, delete old.
// The target layout is written under the extent's next generation
// (Extent.Gen), whose block names no other layout shares; one move
// record in the manifest log — one fsync, under mu's write side for
// exactly that — is the commit point; the superseded generation is
// reclaimed afterwards, best-effort, the way Delete reclaims a file.
// The manifest names one complete generation throughout, so no reader
// is ever refused, and a process killed at any point leaves nothing to
// replay: Recover sweeps whichever generation the manifest does not
// name.
//
// Moves of distinct extents (of the same or different files) run
// concurrently; two moves of one extent serialize.
func (s *Store) TranscodeExtent(name string, ext int, codeName string) (TranscodeReport, error) {
	return s.TranscodeExtentAt(name, ext, codeName, 0)
}

// TranscodeExtentAt is TranscodeExtent for a tiering move decided at
// clock time at: a nonzero at goes into the move record and becomes the
// extent's Moved, so the policy's dwell survives any restart with the
// move itself. At 0 the record is TranscodeExtent's and Moved is kept.
func (s *Store) TranscodeExtentAt(name string, ext int, codeName string, at float64) (TranscodeReport, error) {
	// Hold the move path's read side (Recover takes the write side),
	// the store's process-exclusive move flock (so another process
	// can neither move concurrently against a stale manifest nor
	// sweep the generation this move is writing), and this extent's
	// move lock, for the whole operation.
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	if err := s.lockStoreForMove(); err != nil {
		return TranscodeReport{}, err
	}
	defer s.unlockStoreForMove()
	s.lockMove(moveKey(name, ext))
	defer s.unlockMove(moveKey(name, ext))

	fi, ok := s.Info(name)
	if !ok {
		return TranscodeReport{}, fmt.Errorf("hdfsraid: %w %q", ErrNotFound, name)
	}
	if ext < 0 || ext >= len(fi.Extents) {
		return TranscodeReport{}, fmt.Errorf("hdfsraid: %q has no extent %d", name, ext)
	}
	e := fi.Extents[ext]
	oldCC, err := s.codecByName(e.Code)
	if err != nil {
		return TranscodeReport{}, err
	}
	rep := TranscodeReport{From: oldCC.Name()}
	newCC, err := s.codecByName(codeName)
	if err != nil {
		return rep, err
	}
	rep.To = newCC.Name()
	if newCC.Name() == oldCC.Name() {
		return rep, nil // already on the target code
	}

	// Stream the re-encoding: per-stripe (possibly degraded) reads
	// through the old code feed the new code's encoder directly, and
	// every stripe goes to its final, next-generation names the moment
	// it is encoded. Nothing reads those names before the record below
	// says so.
	if err := s.ensureNodeDirs(newCC.Nodes()); err != nil {
		return rep, err
	}
	target := fi
	target.Extents = slices.Clone(fi.Extents)
	t := &target.Extents[ext]
	t.Code, t.Stripes, t.Gen = codeName, stripesFor(e.Blocks, newCC.DataSymbols()), e.Gen+1
	// New stripe/symbol (stripe, j) is extent-local data block l, which
	// the old layout stores at (l/kOld, l%kOld): a stripe's live blocks
	// are read in runs, one pass of the ladder per old stripe they span,
	// never healing — a move holds no store lock here, which a heal's
	// rewrite needs.
	kOld, kNew, stripe := oldCC.DataSymbols(), newCC.DataSymbols(), 0
	fill := func(p *pendingStripe) (more bool, err error) {
		p.ext, p.stripe, p.live = ext, stripe, min(kNew, e.Blocks-stripe*kNew)
		for j := range p.live {
			p.blocks[j] = s.payloadPool.Get()
		}
		for j := 0; j < p.live; {
			l := stripe*kNew + j
			run := min(kOld-l%kOld, p.live-j)
			if _, err := s.readStripe(oldCC, name, fi, ext, l/kOld, l%kOld, 0, p.blocks[j:j+run], false); err != nil {
				return false, fmt.Errorf("reading data blocks %d-%d: %w", e.Start+l, e.Start+l+run-1, err)
			}
			j += run
		}
		stripe++
		return stripe < t.Stripes, nil
	}
	if err := s.writeStripes(codeName, name, fi.ExtentPaths, t.Gen, fill); err != nil {
		return rep, fmt.Errorf("hdfsraid: transcode %q extent %d: %w", name, ext, err)
	}
	rep.DataBlocksRead = e.Blocks
	if err := s.kill("staged"); err != nil {
		return rep, err // simulated crash: a whole next generation, no record
	}

	// The commit point, with readers excluded: one record. A commit
	// that fails may still have reached the disk (a failed fsync), where
	// a restart would find and apply it: the generation it names stays,
	// for that restart's table or its sweep to claim.
	s.mu.Lock()
	cur, ok := s.manifest.Files[name]
	if !ok || cur.Length != fi.Length || ext >= len(cur.Extents) || cur.Extents[ext] != e {
		s.mu.Unlock()
		s.reclaim(name, target, ext)
		return rep, fmt.Errorf("hdfsraid: file %q changed during transcode", name)
	}
	err = s.commit(record{Op: opMove, Name: name, Ext: ext, Code: t.Code, Stripes: t.Stripes, Gen: t.Gen, T: at})
	s.mu.Unlock()
	if err != nil {
		return rep, err
	}
	s.obs.emit(traceJournal, obs.Event{Type: "moved", Name: name, Ext: ext,
		Detail: fmt.Sprintf("%s -> %s, generation %d", rep.From, rep.To, t.Gen)})
	if err := s.kill("moved"); err != nil {
		return rep, err // simulated crash: record durable, nothing reclaimed
	}
	// No reader holds the old entry any more (each reads under mu's read
	// side, which the commit waited out), so its blocks can go.
	rep.BlocksRemoved = s.reclaim(name, fi, ext)
	rep.BlocksWritten = layoutBlocks(newCC, e.Blocks)
	rep.Stripes = t.Stripes
	rep.Extents = 1
	s.obs.add(cTcMoves, 1)
	s.obs.add(cTcBlocksRead, int64(rep.DataBlocksRead))
	s.obs.add(cTcBlocksWritten, int64(rep.BlocksWritten))
	s.obs.add(cTcBytesMoved, int64(rep.DataBlocksRead+rep.BlocksWritten)*int64(s.blockSize))
	return rep, nil
}

// layoutBlocks returns the physical block replicas an extent of blocks
// data blocks occupies under cc: full stripes plus a shortened tail.
func layoutBlocks(cc core.Code, blocks int) int {
	k, p := cc.DataSymbols(), cc.Placement()
	n := blocks / k * p.TotalBlocks()
	if tail := blocks % k; tail > 0 {
		n += p.StripeBlocks(k, tail)
	}
	return n
}

// moveCost is the block-unit traffic bill of re-encoding blocks data
// blocks onto a code: exactly those data blocks read from the source
// layout, whatever its code, plus the target layout's physical
// replicas written.
func moveCost(to core.Code, blocks int) int { return blocks + layoutBlocks(to, blocks) }

// TranscodeExtentCost prices one extent's move to the named code in
// block units — the extent-scoped admission estimate the rate-limited
// tier daemon budgets against.
func (s *Store) TranscodeExtentCost(name string, ext int, toName string) (int, error) {
	fi, ok := s.Info(name)
	if !ok {
		return 0, fmt.Errorf("hdfsraid: %w %q", ErrNotFound, name)
	}
	if ext < 0 || ext >= len(fi.Extents) {
		return 0, fmt.Errorf("hdfsraid: %q has no extent %d", name, ext)
	}
	from, err := s.codecByName(fi.Extents[ext].Code)
	if err != nil {
		return 0, err
	}
	to, err := s.codecByName(toName)
	if err != nil {
		return 0, err
	}
	if from.Name() == to.Name() {
		return 0, nil
	}
	return moveCost(to, fi.Extents[ext].Blocks), nil
}
