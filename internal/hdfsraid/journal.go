package hdfsraid

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/durable"
	"repro/internal/obs"
)

// IntentState is the journal state of an in-flight transcode. The
// states form a one-way crash-recovery state machine:
//
//	(idle) --stage .tc blocks--> (no record yet; orphan sweep on crash)
//	       --persist intent----> IntentStaged   (replay or roll back)
//	       --persist swapping--> IntentSwapping (always replay)
//	       --commit manifest---> (idle)
//
// A crash before the intent record exists leaves only orphan .tc
// blocks, which recovery sweeps (rollback: the file never left its old
// code). A crash in IntentStaged is rolled forward when every staged
// block is still present and healthy, and rolled back otherwise — the
// old layout is untouched, so both directions are safe. A crash in
// IntentSwapping has already begun destroying the old layout, so
// recovery always rolls forward: the staged blocks are the only
// complete copy.
type IntentState string

const (
	// IntentStaged means every staged block is durable but the old
	// layout is still fully intact.
	IntentStaged IntentState = "staged"
	// IntentSwapping means the swap has begun: old replicas may be
	// gone and staged blocks may already occupy their final names.
	IntentSwapping IntentState = "swapping"
)

// TranscodeIntent is the journal record of one in-flight extent
// transcode, persisted in the manifest's journal queue (an intent record
// in the manifest log, carried by the snapshot across a checkpoint)
// before any destructive step so that recovery after a crash is exact.
// The queue holds one entry per in-flight move (at most one per extent —
// per-extent locking enforces that), so any number of moves of
// distinct extents can be mid-flight when a process dies and Recover
// replays or rolls back every one of them. A move of extent 0 carries
// no extent field. Staged paths are root-relative final block
// paths; the staged copy of each lives at path+".tc" until the swap
// renames it into place.
type TranscodeIntent struct {
	File string `json:"file"`
	// Extent is the index of the extent the move covers; stripe
	// counts below are extent-local.
	Extent     int         `json:"extent,omitempty"`
	From       string      `json:"from"` // resolved source code name
	To         string      `json:"to"`   // resolved target code name
	Length     int         `json:"length"`
	OldStripes int         `json:"old_stripes"`
	NewStripes int         `json:"new_stripes"`
	State      IntentState `json:"state"`
	Staged     []string    `json:"staged"` // root-relative final paths
}

// RecoverReport summarizes the startup recovery pass over the
// transcode journal.
type RecoverReport struct {
	// Replayed is the number of journaled transcodes rolled forward to
	// completion.
	Replayed int
	// RolledBack is the number of journaled transcodes undone (staged
	// blocks dropped, file left on its old code).
	RolledBack int
	// OrphanBlocks counts stray .tc blocks swept that no journal
	// record referenced (a crash before the intent was persisted).
	OrphanBlocks int
	// MissingStaged counts staged blocks a replay could not find in
	// either staged or final form; the replayed file may need Repair.
	MissingStaged int
	// Skipped reports that recovery stood down because another live
	// process holds the store flock (a move in flight elsewhere): its
	// journal entries are live moves, not crash residue. The next
	// quiescent Open or Recover call runs the pass normally.
	Skipped bool
}

// Acted reports whether recovery changed anything on disk.
func (r RecoverReport) Acted() bool {
	return r.Replayed > 0 || r.RolledBack > 0 || r.OrphanBlocks > 0
}

// LastRecovery returns the report of the recovery pass Open ran, so
// callers (hdfscli fsck, monitoring) can surface crash cleanups.
func (s *Store) LastRecovery() RecoverReport { return s.recovery }

// Recover replays or rolls back every incomplete transcode recorded in
// the manifest's journal queue and sweeps orphan staged blocks. Open
// calls it automatically; it is idempotent and safe on a healthy
// store. It takes the store's move path exclusively, so it must not
// run concurrently with live transcodes — their journal entries
// describe moves still in progress, not crash residue. In-process the
// opMu write lock enforces that; across processes the store flock
// does, by standing recovery down while another live process is
// moving (see RecoverReport.Skipped).
func (s *Store) Recover() (RecoverReport, error) {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	// A process holding the store flock is mid-move: its staged blocks
	// and journal entries describe live moves, not crash residue, and
	// sweeping or replaying them here would corrupt the store — while
	// blocking would stall every Open behind a slow paced move. A held
	// flock proves its owner is alive, so skipping is both safe and
	// cheap; a dead process's flock is released by the kernel, so
	// genuine crash recovery always gets the lock. (opMu's write side
	// is held, so no move of this process holds it either.)
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
	for len(s.manifest.Queue) > 0 {
		in := s.manifest.Queue[0]
		forward := true
		if in.State == IntentStaged {
			// The old layout is intact, so rolling back is safe; do so
			// unless every staged block survived the crash.
			forward = s.stagedComplete(in)
		}
		if forward {
			missing, err := s.replayIntent(in)
			if err != nil {
				return rep, err
			}
			rep.Replayed++
			rep.MissingStaged += missing
			s.obs.add(cJournalReplayed, 1)
			s.journalEvent("replayed", in)
		} else {
			// The swap never began and the file table was never touched:
			// drop the staged blocks and the entry, and the file simply
			// stays on its old code.
			s.removeStaged(in.Staged)
			if err := s.commit(record{Op: opRollback, Name: in.File, Ext: in.Extent}); err != nil {
				return rep, err
			}
			rep.RolledBack++
			s.obs.add(cJournalRolledBack, 1)
			s.journalEvent("rolled_back", in)
		}
	}
	n, err := s.sweepOrphans()
	if err != nil {
		return rep, err
	}
	rep.OrphanBlocks = n
	if n > 0 {
		s.obs.add(cJournalOrphans, int64(n))
		s.obs.emit(traceJournal, obs.Event{Type: "orphan_sweep", Ext: -1,
			Detail: fmt.Sprintf("%d stray staged blocks removed", n)})
	}
	return rep, nil
}

// pendingSwapLocked reports whether an extent has a journaled move
// whose destructive swap phase began but never committed — possible
// in-process when an I/O fault aborts completeSwap after its bounded
// retries. Old and new layouts share block paths, so until Recover
// rolls the swap forward the extent's on-disk state is a mix of both
// and reading it under either code can return wrong bytes with valid
// CRCs. Readers and the scrubber must refuse such extents. Caller
// holds mu. (IntentStaged is harmless: the old layout is intact.)
func (s *Store) pendingSwapLocked(name string, ext int) bool {
	i := s.manifest.queued(name, ext)
	return i >= 0 && s.manifest.Queue[i].State == IntentSwapping
}

// stagedComplete reports whether every staged .tc block of the intent
// is present and checksums clean. Only the staged form counts: in
// IntentStaged no rename has happened yet, and a block already sitting
// at the final path is the OLD layout's when the two layouts share a
// path — mistaking it for a renamed staged block would replay the
// transcode over missing data.
func (s *Store) stagedComplete(in *TranscodeIntent) bool {
	buf := s.payloadPool.Get()
	defer s.payloadPool.Put(buf)
	for _, rel := range in.Staged {
		if err := s.readBlockInto(filepath.Join(s.root, rel)+tmpSuffix, buf, 0); err != nil {
			return false
		}
	}
	return true
}

// replayIntent rolls a journaled transcode forward to completion:
// finish the swap, commit the file's new code, clear the journal. It
// returns the number of staged blocks found in neither form (damage
// for Repair to fix, not a reason to abort — the swap may already
// have destroyed the old layout).
func (s *Store) replayIntent(in *TranscodeIntent) (int, error) {
	// The swap is about to begin (or resume); record that fact first
	// so a crash during this very replay still recovers forward.
	if in.State != IntentSwapping {
		if err := s.commit(record{Op: opSwapping, Name: in.File, Ext: in.Extent}); err != nil {
			return 0, err
		}
	}
	swap, err := s.completeSwap(in)
	if err != nil {
		return swap.missing, err
	}
	return swap.missing, s.commit(record{Op: opCommit, Name: in.File, Ext: in.Extent})
}

// swapResult tallies one completeSwap pass.
type swapResult struct {
	removed int // old block replicas deleted
	renamed int // staged blocks promoted to their final names
	missing int // staged blocks found in neither form
}

// completeSwap executes (or resumes) the destructive phase of a
// journaled transcode: delete every old-layout replica of the moved
// extent that is not also a final path of the new layout, then rename
// each staged block into place. Both halves are idempotent, so
// recovery can re-run the whole thing after a crash at any point.
// Callers hold mu plus either the extent's move lock (TranscodeExtent)
// or opMu's write side (Recover).
func (s *Store) completeSwap(in *TranscodeIntent) (swapResult, error) {
	var res swapResult
	newFinal := make(map[string]bool, len(in.Staged))
	for _, rel := range in.Staged {
		newFinal[filepath.Join(s.root, rel)] = true
	}
	// Until the move commits, the file table still describes the old
	// layout (in.From, in.OldStripes) of the moved extent.
	fi := s.manifest.Files[in.File]
	if in.Extent < 0 || in.Extent >= len(fi.Extents) {
		return res, fmt.Errorf("hdfsraid: journaled move of %q names extent %d the file table lacks", in.File, in.Extent)
	}
	err := s.forEachReplica(in.File, fi, in.Extent, func(r blockRef, v int) error {
		path := s.extentBlockPath(v, in.File, fi, in.Extent, r.stripe, r.sym)
		if newFinal[path] {
			// The new layout reuses this name: the rename below will
			// overwrite it, so never delete here (a resumed swap may
			// already have promoted the staged block), but an old
			// replica still present counts as removed.
			if _, err := os.Stat(path); err == nil {
				res.removed++
			}
		} else if s.bio.Remove(path) == nil {
			res.removed++
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	for n, rel := range in.Staged {
		path := filepath.Join(s.root, rel)
		switch err := s.bio.Rename(path+tmpSuffix, path); {
		case err == nil:
			res.renamed++
		case os.IsNotExist(err):
			if _, statErr := os.Stat(path); statErr == nil {
				res.renamed++ // an earlier interrupted swap already promoted it
			} else {
				res.missing++
			}
		default:
			return res, err
		}
		if n == 0 {
			if err := s.kill("midswap"); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// sweepOrphans removes staged .tc blocks that no journal record
// references — the residue of a transcode that crashed before its
// intent was persisted — and any .heal write-back temp frames left by
// a heal interrupted mid-rename (never journaled: the quarantined or
// reconstructable original still exists, so the temp is pure residue).
// Caller holds mu.
func (s *Store) sweepOrphans() (int, error) {
	referenced := map[string]bool{}
	for _, in := range s.manifest.Queue {
		for _, rel := range in.Staged {
			referenced[filepath.Join(s.root, rel)+tmpSuffix] = true
		}
	}
	matches, err := filepath.Glob(filepath.Join(s.root, "node-*", "*"+tmpSuffix))
	if err != nil {
		return 0, err
	}
	healTemps, err := filepath.Glob(filepath.Join(s.root, "node-*", "*"+healSuffix+"*"))
	if err != nil {
		return 0, err
	}
	matches = append(matches, healTemps...)
	removed := 0
	for _, path := range matches {
		if referenced[path] {
			continue
		}
		if err := s.bio.Remove(path); err != nil && !os.IsNotExist(err) {
			return removed, err
		}
		removed++
	}
	return removed, nil
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
