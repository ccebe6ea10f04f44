package hdfsraid

import (
	"fmt"
)

// Delete removes a stored file: the manifest entry goes first (one
// logged record — the moment it is fsynced the delete is durable), then
// every block replica is removed best-effort. A replica that cannot be
// removed (already missing on a degraded file, or a transient I/O
// fault) is simply left behind: no manifest entry names it, so no read,
// scrub or repair will ever touch it, and a later ingest of the same
// name overwrites any path it reuses. The count of replicas actually
// removed is returned.
//
// Delete serializes against a concurrent ingest of the same name (the
// per-name ingest lock) and against transcodes of any of the file's
// extents (the per-extent move locks). A reader that looked the file
// up before the delete commits may see its blocks vanish mid-read; such
// a read fails, it never returns wrong bytes.
func (s *Store) Delete(name string) (blocksRemoved int, err error) {
	start := s.obs.now()
	defer func() {
		if err == nil {
			s.obs.since(hDelete, start)
			s.obs.add(cDeletes, 1)
		}
	}()
	// Claim the name against concurrent ingest, then every extent's
	// move lock so no transcode is mid-flight while blocks disappear.
	// Lock order (ingest key, then extent keys ascending) matches the
	// ingest and transcode paths, which take at most one of these each.
	s.lockMove(ingestKey(name))
	defer s.unlockMove(ingestKey(name))

	s.mu.RLock()
	fi, ok := s.manifest.Files[name]
	s.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("hdfsraid: %w %q", ErrNotFound, name)
	}
	for ext := range fi.Extents {
		s.lockMove(moveKey(name, ext))
		defer s.unlockMove(moveKey(name, ext))
	}

	s.mu.Lock()
	// Re-read under the move locks: a transcode that committed between
	// the peek above and the locks changed the extent layout (and block
	// paths) we are about to remove.
	fi, ok = s.manifest.Files[name]
	if !ok {
		s.mu.Unlock()
		return 0, fmt.Errorf("hdfsraid: %w %q", ErrNotFound, name)
	}
	if _, err := s.extentCodecs(fi); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	id := s.manifest.ids[name]
	if err := s.commit(record{Op: opDel, Name: name}); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	s.mu.Unlock()
	// The identity is retired: nothing can hit its cached extents again,
	// dropping them just gives the bytes back at once.
	if s.cache != nil {
		s.cache.drop(id, len(fi.Extents))
		s.obs.cacheLevel(s.cache)
	}

	// Durable: reclaim the blocks. Best-effort by design (see doc
	// comment); count what actually went away.
	for ext := range fi.Extents {
		blocksRemoved += s.reclaim(name, fi, ext)
	}
	return blocksRemoved, nil
}

// reclaim removes every block replica the layout of one extent of fi
// expects, best-effort, and returns how many went away: how Delete
// gives back a file's blocks, a move the generation it superseded (or
// the one it wrote, if its commit check fails) and a failed stripe
// writer what it wrote. Callers have committed the record that makes
// the layout unreachable, or never will, and hold the name's ingest or
// the extent's move lock, not mu.
func (s *Store) reclaim(name string, fi FileInfo, ext int) (removed int) {
	// Cannot fail: the extent's code has resolved before and fn never errors.
	_ = s.forEachReplica(name, fi, ext, func(r blockRef, v int) error {
		if s.bio.Remove(s.extentBlockPath(v, name, fi, ext, r.stripe, r.sym)) == nil {
			removed++
		}
		return nil
	})
	return removed
}
