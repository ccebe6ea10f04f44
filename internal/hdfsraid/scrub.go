package hdfsraid

import (
	"errors"
	"io/fs"

	"repro/internal/block"
	"repro/internal/obs"
)

// before reports whether replica r scans strictly before the scrub
// cursor c — the next replica the trickle scrubber will verify, in
// scan order (file name, extent, stripe, symbol, replica). The zero
// cursor means "start from the first replica of the first file". The
// cursor persists only in memory: a restarted store rescans from the
// top, which is safe (scrubbing is idempotent) and simple.
func (r blockRef) before(c blockRef) bool {
	if r.name != c.name {
		return r.name < c.name
	}
	if r.ext != c.ext {
		return r.ext < c.ext
	}
	if r.stripe != c.stripe {
		return r.stripe < c.stripe
	}
	if r.sym != c.sym {
		return r.sym < c.sym
	}
	return r.rep < c.rep
}

// ScrubReport summarizes one Scrub call.
type ScrubReport struct {
	// BlocksScanned and BytesScanned count block frames whose CRC was
	// verified this call (reconstruction reads during heals bill one
	// extra frame each to the byte tally).
	BlocksScanned int
	BytesScanned  int64
	// CorruptFound / MissingFound count latent errors discovered:
	// frames failing their CRC and replica files absent entirely.
	CorruptFound int
	MissingFound int
	// Healed counts discovered errors repaired in place; Unrepairable
	// counts those healing could not fix this pass (quarantined frames
	// are restored, so nothing is lost — a later pass retries).
	Healed       int
	Unrepairable int
	// Wrapped reports that the pass covered every block replica in the
	// store — the cursor made it all the way around.
	Wrapped bool
}

// Scrub verifies block-replica CRCs in scan order, resuming from where
// the previous call stopped and wrapping around, until it has read
// maxBytes worth of frames (maxBytes <= 0 means one full pass). Every
// corrupt or missing replica found is healed through the same
// quarantine + reconstruct + write-back path self-healing reads use.
// At least one block is always scanned, so any positive trickle budget
// makes progress.
//
// The byte budget is the point: a tier.Daemon grants Scrub the tokens
// its move bucket has left over each tick, so background verification
// trickles along at the rebalance rate cap without ever starving
// moves.
func (s *Store) Scrub(maxBytes int64) (ScrubReport, error) {
	s.scrubMu.Lock()
	defer s.scrubMu.Unlock()
	start := s.obs.now()
	s.mu.RLock()
	defer s.mu.RUnlock()

	var rep ScrubReport
	// Materialize the scan order. The manifest is small next to the
	// blocks it describes, so a flat slice beats cursor arithmetic
	// against five nested dimensions that shift whenever files come
	// and go between calls.
	var refs []blockRef
	for _, name := range s.filesLocked() {
		fi := s.manifest.Files[name]
		for ext := range fi.Extents {
			if err := s.forEachReplica(name, fi, ext, func(r blockRef, _ int) error {
				refs = append(refs, r)
				return nil
			}); err != nil {
				return rep, err
			}
		}
	}
	if len(refs) == 0 {
		rep.Wrapped = true
		return rep, nil
	}
	// Resume at the first replica not strictly before the cursor; if
	// the cursor points past everything (files removed), wrap to 0.
	startIdx := 0
	for startIdx < len(refs) && refs[startIdx].before(s.scrubPos) {
		startIdx++
	}
	if startIdx == len(refs) {
		startIdx = 0
	}

	buf := s.payloadPool.Get()
	defer s.payloadPool.Put(buf)
	frameBytes := int64(block.FrameSize(s.blockSize))
	i := startIdx
	for scanned := 0; scanned < len(refs); scanned++ {
		if maxBytes > 0 && rep.BytesScanned+frameBytes > maxBytes && scanned > 0 {
			break
		}
		ref := refs[i]
		fi := s.manifest.Files[ref.name]
		cc, err := s.codecByName(fi.Extents[ref.ext].Code)
		if err != nil {
			return rep, err
		}
		v := cc.Placement().SymbolNodes[ref.sym][ref.rep]
		err = s.readBlockInto(s.extentBlockPath(v, ref.name, fi, ref.ext, ref.stripe, ref.sym), buf, 0)
		rep.BlocksScanned++
		rep.BytesScanned += frameBytes
		switch {
		case err == nil:
		case errors.Is(err, ErrCorrupt), errors.Is(err, fs.ErrNotExist):
			if errors.Is(err, ErrCorrupt) {
				rep.CorruptFound++
			} else {
				rep.MissingFound++
			}
			s.obs.add(cScrubFound, 1)
			if healErr := s.healBlock(cc, ref.name, fi, ref.ext, ref.stripe, ref.sym, v, nil); healErr != nil {
				rep.Unrepairable++
				s.obs.add(cScrubUnrepairable, 1)
				s.obs.emit(traceHeal, obs.Event{Type: "unrepairable", Name: ref.name, Ext: ref.ext,
					Detail: healErr.Error()})
			} else {
				rep.Healed++
				rep.BytesScanned += frameBytes // the reconstruct's reads, roughly
				s.obs.add(cScrubHealed, 1)
			}
		default:
			// Reads already retried transient errors; whatever this is
			// (permissions, an injected outage outlasting the backoff),
			// scrubbing through it would misreport the store, so stop
			// and let the next call retry from the same cursor.
			s.scrubPos = ref
			return rep, err
		}
		if i++; i == len(refs) {
			i = 0
		}
	}
	rep.Wrapped = rep.BlocksScanned == len(refs)
	s.scrubPos = refs[i]
	s.obs.since(hScrub, start)
	s.obs.add(cScrubBytes, rep.BytesScanned)
	s.obs.add(cScrubBlocks, int64(rep.BlocksScanned))
	return rep, nil
}
