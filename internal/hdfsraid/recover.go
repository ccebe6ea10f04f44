package hdfsraid

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/durable"
	"repro/internal/obs"
)

// RecoverReport summarizes the startup recovery pass.
type RecoverReport struct {
	// Orphans counts the block files swept: those of a live extent that
	// its current layout does not expect — the generation a move killed
	// before its record was writing, or one killed after it had yet to
	// reclaim — and heal write-back temps.
	Orphans int
	// Skipped reports that recovery stood down because another live
	// process holds the store flock (a move in flight elsewhere): the
	// generation it is writing is not crash residue. The next quiescent
	// Open or Recover call runs the pass normally.
	Skipped bool
}

// LastRecovery returns the report of the recovery pass Open ran, so
// callers (hdfscli fsck, monitoring) can surface crash cleanups.
func (s *Store) LastRecovery() RecoverReport { return s.recovery }

// Recover sweeps what a killed extent move leaves behind. A move writes
// its target layout under the extent's next generation, commits one
// manifest record and only then removes the old generation (see
// TranscodeExtent), so at every instant the manifest names exactly one
// complete generation and a crash needs no replay: whatever else is on
// disk under a live extent's name is garbage. Recover lists the node
// directories once and removes every heal temp and every block file
// whose name parses to a live extent but is not a replica that extent's
// current layout expects. Files of names the manifest lacks — an ingest
// still streaming, what a Delete could not remove — are never touched.
// Open calls it automatically; it is idempotent and safe on a healthy
// store. It takes the store's move path exclusively, so it never runs
// beside a live move of this process (opMu) or another (the store flock,
// by standing down: see RecoverReport.Skipped).
func (s *Store) Recover() (RecoverReport, error) {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	// A held flock proves its owner is alive and mid-move, and blocking
	// would stall every Open behind a slow move; a dead process's
	// flock is released by the kernel, so genuine crash recovery always
	// gets the lock.
	ok, err := durable.TryLock(s.lockFile)
	if err != nil {
		return RecoverReport{}, fmt.Errorf("hdfsraid: locking store for recovery: %w", err)
	}
	if !ok {
		s.obs.emit(traceJournal, obs.Event{Type: "recovery_skipped", Ext: -1,
			Detail: "store flock held by a live mover"})
		return RecoverReport{Skipped: true}, nil
	}
	defer durable.Unlock(s.lockFile)
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep RecoverReport
	// Catch up now that the lock is held: the table loaded before the
	// flock was granted may predate moves another process committed
	// while we waited.
	if err := s.refresh(); err != nil {
		return rep, err
	}
	err = s.walkNodeDirs(func(v int, base string) error {
		if !s.stale(v, base) {
			return nil
		}
		// The flock keeps other movers out, not another process's PUTs
		// and DELETEs (hdfscli fsck beside a live server): judge again
		// by the table as it is now, so that a name replaced since this
		// pass began is condemned by its own entry or not at all.
		if err := s.refresh(); err != nil || !s.stale(v, base) {
			return err
		}
		if err := s.bio.Remove(filepath.Join(s.nodeDir(v), base)); err != nil && !os.IsNotExist(err) {
			return err
		}
		rep.Orphans++
		return nil
	})
	if rep.Orphans > 0 {
		s.obs.add(cJournalOrphans, int64(rep.Orphans))
		s.obs.emit(traceJournal, obs.Event{Type: "orphan_sweep", Ext: -1,
			Detail: fmt.Sprintf("%d stale block files removed", rep.Orphans)})
	}
	return rep, err
}

// stale reports whether entry base of node v's directory is residue
// the recovery sweep removes: a heal write-back temp, or a block file
// of a live extent that is not a replica its current layout keeps on
// that node. Caller holds mu.
func (s *Store) stale(v int, base string) bool {
	if i := strings.LastIndex(base, healSuffix); i >= 0 {
		if _, err := strconv.ParseUint(base[i+len(healSuffix):], 10, 64); err == nil {
			return true
		}
	}
	for _, extPaths := range []bool{true, false} {
		name, ext, gen, stripe, sym, ok := parseBlockName(base, extPaths)
		fi, live := s.manifest.Files[name]
		if !ok || !live || fi.ExtentPaths != extPaths || ext >= len(fi.Extents) {
			continue
		}
		e := fi.Extents[ext]
		cc, err := s.codecByName(e.Code)
		if err != nil {
			return false
		}
		return gen != e.Gen || stripe >= e.Stripes || sym >= cc.Symbols() ||
			e.zeroSymbol(cc.DataSymbols(), stripe, sym) ||
			!slices.Contains(cc.Placement().SymbolNodes[sym], v)
	}
	return false
}

// kill is the crash-injection hook for kill-point tests: when the
// test-only killHook returns an error at a named point, the calling
// operation aborts immediately without any cleanup, exactly as if the
// process had died there. Production stores have no hook and pay one
// nil check per point.
func (s *Store) kill(point string) error {
	if s.killHook == nil {
		return nil
	}
	if err := s.killHook(point); err != nil {
		return fmt.Errorf("hdfsraid: killed at %s: %w", point, err)
	}
	return nil
}
