package hdfsraid

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
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

// tmpSuffix marks staged transcode blocks; they become visible only
// after every stripe of the new encoding is safely on disk.
const tmpSuffix = ".tc"

// moveKey names the per-move lock for one extent of one file.
func moveKey(name string, ext int) string {
	return fmt.Sprintf("%s\x00%d", name, ext)
}

// Transcode re-encodes a stored file from its current code(s) to the
// named registered code without losing data, extent by extent: each
// extent not already on the target runs through TranscodeExtent, so a
// partially tiered file converges and a crash strands at most the
// in-flight extent (which recovery completes). The report aggregates
// every extent moved; From is the first moved extent's source code.
func (s *Store) Transcode(name, codeName string) (TranscodeReport, error) {
	newCC, err := s.codecByName(codeName)
	if err != nil {
		return TranscodeReport{}, err
	}
	exts, ok := s.Extents(name)
	if !ok {
		return TranscodeReport{}, fmt.Errorf("hdfsraid: no such file %q", name)
	}
	rep := TranscodeReport{To: newCC.code.Name()}
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
// degraded) read path, re-striped and re-encoded under the new code,
// staged beside the old blocks, and only then swapped in and recorded
// in the manifest. It is the move primitive of the hot/cold tiering
// layer at extent granularity: only the target extent's stripes move,
// so promoting the hot head of a large cold file costs the head, not
// the file.
//
// The data plane streams: both codes stripe the extent at the store's
// block size, so extent-local data block l under the new layout is
// exactly data block l under the old one, and a worker pool reads each
// new stripe's blocks through the old code's read ladder (readStripe)
// straight into the encoder's pooled buffers. Peak memory is O(stripes
// in flight) — a few block frames per worker — never O(extent), so a
// rebalance scan can move arbitrarily large extents without ballooning
// the process.
//
// Moves of distinct extents (of the same or different files) run
// concurrently: each holds only its per-extent lock plus, briefly, the
// manifest lock for the journal and swap phases. Two moves of one
// extent serialize.
//
// The swap is crash-exact: before any old block is touched, the full
// move — file, extent, codes, staged-block list — is journaled as a
// TranscodeIntent in the manifest's journal queue, and each
// destructive phase advances the journal state first (one fsynced log
// record per transition: intent, swapping, commit). A process killed
// at any point, with any number of moves in flight, leaves a store
// that Open's recovery pass (see Recover) rolls forward to the new
// code or back to the old one, extent by extent, byte-identical either
// way.
func (s *Store) TranscodeExtent(name string, ext int, codeName string) (TranscodeReport, error) {
	// Hold the move path's read side (Recover takes the write side),
	// the store's process-exclusive move flock (so another process
	// can neither move concurrently against a stale manifest nor
	// sweep this move's staged blocks in its startup recovery), and
	// this extent's move lock, for the whole operation.
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
		return TranscodeReport{}, fmt.Errorf("hdfsraid: no such file %q", name)
	}
	if ext < 0 || ext >= len(fi.Extents) {
		return TranscodeReport{}, fmt.Errorf("hdfsraid: %q has no extent %d", name, ext)
	}
	e := fi.Extents[ext]
	oldCC, err := s.codecByName(e.Code)
	if err != nil {
		return TranscodeReport{}, err
	}
	rep := TranscodeReport{From: oldCC.code.Name()}
	newCC, err := s.codecByName(codeName)
	if err != nil {
		return rep, err
	}
	rep.To = newCC.code.Name()
	if newCC.code.Name() == oldCC.code.Name() {
		return rep, nil // already on the target code
	}
	// A move of this extent that failed between journaling its intent
	// and committing (e.g. ENOSPC mid-swap) left its journal entry as
	// the only recovery map for the extent — never stage over it; make
	// the caller run Recover first. Moves of other extents proceed.
	s.mu.RLock()
	pending := s.manifest.queued(name, ext) >= 0
	s.mu.RUnlock()
	if pending {
		return rep, fmt.Errorf("hdfsraid: transcode of %q extent %d pending in journal; run Recover before moving it again", name, ext)
	}

	// Stream the re-encoding: per-stripe (possibly degraded) reads
	// through the old code feed the new code's encoder directly, and
	// every stripe is staged as .tc blocks the moment it is encoded.
	// What gets staged is exactly the replica set the extent's new
	// layout expects, so the staged list (root-relative final paths)
	// is that layout's walk.
	if err := s.ensureNodeDirs(newCC.code.Nodes()); err != nil {
		return rep, err
	}
	stripeCount := stripesFor(e.Blocks, newCC.code.DataSymbols())
	target := fi
	target.Extents = append([]Extent(nil), fi.Extents...)
	target.Extents[ext].Code, target.Extents[ext].Stripes = codeName, stripeCount
	staged := make([]string, 0, layoutBlocks(newCC, e.Blocks))
	err = s.forEachReplica(name, target, ext, func(r blockRef, v int) error {
		rel, err := filepath.Rel(s.root, s.extentBlockPath(v, name, target, ext, r.stripe, r.sym))
		staged = append(staged, rel)
		return err
	})
	if err != nil {
		return rep, err
	}
	if rep.DataBlocksRead, err = s.transcodeExtentStream(name, fi, ext, oldCC, newCC); err != nil {
		s.removeStaged(staged)
		return rep, fmt.Errorf("hdfsraid: transcode %q extent %d: %w", name, ext, err)
	}
	if err := s.kill("staged"); err != nil {
		return rep, err // simulated crash: orphan .tc blocks, no journal record
	}

	// Journal the intent before any destructive step, with readers
	// excluded. From here on a crash is recovered from the journal, so
	// failure paths must NOT clean up staged blocks.
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.manifest.Files[name]
	if !ok || cur.Length != fi.Length || ext >= len(cur.Extents) || cur.Extents[ext] != e {
		s.removeStaged(staged)
		return rep, fmt.Errorf("hdfsraid: file %q changed during transcode", name)
	}
	// The journal needs registry names (codec cache keys), not the
	// codes' display names.
	fromName := e.Code
	if fromName == "" {
		fromName = s.codeName
	}
	in := &TranscodeIntent{
		File: name, Extent: ext, From: fromName, To: codeName,
		Length: fi.Length, OldStripes: e.Stripes, NewStripes: stripeCount,
		State: IntentStaged, Staged: staged,
	}
	if err := s.commit(record{Op: opIntent, Intent: in}); err != nil {
		s.removeStaged(staged)
		return rep, err
	}
	s.journalEvent("staged", in)
	if err := s.kill("intent"); err != nil {
		return rep, err // simulated crash: journal in IntentStaged
	}

	// Point of no return: mark the swap begun (so recovery always
	// rolls forward past here), drop the old replicas, promote the
	// staged ones, then commit the new code and clear the journal
	// entry.
	if err := s.commit(record{Op: opSwapping, Name: name, Ext: ext}); err != nil {
		return rep, err // journal survives; recovery finishes the move
	}
	s.journalEvent("swapping", in)
	swapStart := s.obs.now()
	swap, err := s.completeSwap(in) // calls kill("midswap") after the first rename
	// The swap is idempotent, so a transient I/O failure (a flaky
	// device, an injected fault) gets a bounded in-place retry before
	// the extent is left to Recover. An abandoned half-swap is safe —
	// readers refuse IntentSwapping extents — but unreadable until
	// recovery runs, so cheap retries are worth it.
	for attempt := 0; err != nil && attempt < blockReadRetries; attempt++ {
		time.Sleep(blockReadBackoff << attempt)
		swap, err = s.completeSwap(in)
	}
	if err != nil {
		return rep, err
	}
	s.obs.since(hTcSwap, swapStart)
	rep.BlocksRemoved = swap.removed
	rep.BlocksWritten = swap.renamed
	rep.Stripes = stripeCount
	rep.Extents = 1
	if err := s.kill("swapped"); err != nil {
		return rep, err // simulated crash: swap done, commit pending
	}
	if err := s.commit(record{Op: opCommit, Name: name, Ext: ext}); err != nil {
		return rep, err
	}
	s.obs.add(cTcMoves, 1)
	s.obs.add(cTcBlocksRead, int64(rep.DataBlocksRead))
	s.obs.add(cTcBlocksWritten, int64(rep.BlocksWritten))
	s.obs.add(cTcBytesMoved, int64(rep.DataBlocksRead+rep.BlocksWritten)*int64(s.blockSize))
	s.journalEvent("committed", in)
	return rep, nil
}

// transcodeExtentStream stages the extent's re-encoding under newCC
// through the striper's source-driven pipeline: each worker reads one
// new stripe's data blocks through the old code's read ladder
// (readStripe) into pooled buffers it reuses across stripes, encodes,
// and stages every replica (writeStripe) before touching the next
// stripe. It returns the number of source data blocks actually read —
// the extent's blocks, never the file's or any stripe padding.
func (s *Store) transcodeExtentStream(name string, fi FileInfo, ext int, oldCC, newCC codec) (int, error) {
	e := fi.Extents[ext]
	kOld := oldCC.code.DataSymbols()
	kNew := newCC.code.DataSymbols()
	count := stripesFor(e.Blocks, kNew)
	var read atomic.Int64
	// Per-stage timings: fill and emit for one stripe run back to back
	// in the same pipeline worker with only the encode between them, so
	// fillEnd[stripe] → emit-entry measures the encode stage exactly.
	// Each slot is written and read by the worker owning that stripe.
	fillEnd := make([]time.Time, count)
	fill := func(stripe int, blocks [][]byte) error {
		t0 := s.obs.now()
		for j := 0; j < len(blocks); {
			// Both layouts stripe the extent's block sequence, so new
			// stripe/symbol (stripe, j) is extent-local data block l,
			// which the old layout stores at (l/kOld, l%kOld). Blocks
			// past the extent's data are the new tail stripe's known
			// zeros: the encoder needs them zeroed, nothing stores them.
			l := stripe*kNew + j
			if l >= e.Blocks {
				clear(blocks[j])
				j++
				continue
			}
			// Read the run of wanted blocks one old stripe holds in a
			// single pass of the ladder — never healing: old-layout
			// blocks must not be rewritten mid-move.
			run := min(kOld-l%kOld, e.Blocks-l, len(blocks)-j)
			if _, err := s.readStripe(oldCC, name, fi, ext, l/kOld, l%kOld, 0, blocks[j:j+run], false); err != nil {
				return fmt.Errorf("reading data blocks %d-%d: %w", e.Start+l, e.Start+l+run-1, err)
			}
			read.Add(int64(run))
			j += run
		}
		fillEnd[stripe] = s.obs.since(hTcRead, t0)
		return nil
	}
	emit := func(stripe core.EncodedStripe) error {
		t0 := s.obs.since(hTcEncode, fillEnd[stripe.Index])
		err := s.writeStripe(newCC, name, fi, ext, e, stripe.Index, stripe.Symbols, tmpSuffix)
		s.obs.since(hTcWrite, t0)
		return err
	}
	// Share the machine's encode-worker budget across concurrent
	// moves: the pipeline's peak memory is O(workers × stripe), so a
	// move asks for the whole machine and reserves only what is left
	// of the GOMAXPROCS budget (never less than one worker) rather
	// than spawning a full pool per move. The reservation is corrected
	// atomically, so total held workers stay ≤ GOMAXPROCS plus one per
	// concurrent move.
	budget := runtime.GOMAXPROCS(0)
	workers := budget
	if over := int(s.encodeWorkers.Add(int64(workers))) - budget; over > 0 {
		granted := workers - over
		if granted < 1 {
			granted = 1
		}
		s.encodeWorkers.Add(int64(granted - workers))
		workers = granted
	}
	defer s.encodeWorkers.Add(-int64(workers))
	err := newCC.striper.EncodeStreamFrom(count, workers, s.payloadPool, fill, emit)
	return int(read.Load()), err
}

// removeStaged best-effort deletes the staged temp blocks of a failed
// or rolled-back move; staged holds root-relative final paths.
func (s *Store) removeStaged(staged []string) {
	for _, rel := range staged {
		s.bio.Remove(filepath.Join(s.root, rel) + tmpSuffix)
	}
}

// layoutBlocks returns the physical block replicas an extent of blocks
// data blocks occupies under cc: full stripes plus a shortened tail.
func layoutBlocks(cc codec, blocks int) int {
	k, p := cc.code.DataSymbols(), cc.code.Placement()
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
func moveCost(to codec, blocks int) int { return blocks + layoutBlocks(to, blocks) }

// TranscodeExtentCost prices one extent's move to the named code in
// block units — the extent-scoped admission estimate the rate-limited
// tier daemon budgets against.
func (s *Store) TranscodeExtentCost(name string, ext int, toName string) (int, error) {
	fi, ok := s.Info(name)
	if !ok || ext < 0 || ext >= len(fi.Extents) {
		return 0, fmt.Errorf("hdfsraid: no such extent %q/%d", name, ext)
	}
	from, err := s.codecByName(fi.Extents[ext].Code)
	if err != nil {
		return 0, err
	}
	to, err := s.codecByName(toName)
	if err != nil {
		return 0, err
	}
	if from.code.Name() == to.code.Name() {
		return 0, nil
	}
	return moveCost(to, fi.Extents[ext].Blocks), nil
}
