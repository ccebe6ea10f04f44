package serve

// Reshard-aware routing. A reshard changes the shard count, which
// remaps ~1/N of the names to shards that do not hold their blocks
// yet. While one is in flight the server routes with TWO rings: the
// new ring is authoritative (puts land there, reads try it first),
// and a read that misses falls back to the name's old-ring shard —
// graceful degradation instead of a wrong answer or a hard 404. The
// actual data movement lives in internal/reshard, which drives the
// transitions here through Grow/BeginResharding/FinishResharding and
// reports per-name in-flight state back for the 503 path.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ReshardJournalName is the file at the serving root that records an
// in-flight reshard: internal/reshard's pending record. Its presence
// is the durable "reshard pending" bit: Open refuses such a root (with
// ErrReshardPending) unless the caller opts into resuming, so a
// half-resharded directory can never be served with single-ring
// routing that would 404 unmoved names.
const ReshardJournalName = "reshard-journal.json"

// ErrReshardPending reports an Open of a serving root with an
// unfinished shard-count change pending. Resume it (hdfscli reshard
// -resume) or open with Config.ResumeReshard set.
var ErrReshardPending = errors.New("unfinished reshard")

// ErrMidMove reports a read of a name that is mid-move in a reshard:
// neither the new-ring nor the old-ring shard holds it right now, but
// the resharder says it exists and is being moved. The HTTP
// layer maps it to 503 + Retry-After — a retryable availability gap,
// never a lie.
var ErrMidMove = errors.New("name is mid-move in a reshard; retry")

// ReshardStatus is the progress report of a reshard, served by
// GET /admin/reshard and printed by hdfscli.
type ReshardStatus struct {
	// Present reports that a reshard exists at all — running now or
	// pending and awaiting resume.
	Present bool `json:"present"`
	// Active reports that the mover is running in this process.
	Active bool `json:"active"`
	From   int  `json:"from,omitempty"`
	To     int  `json:"to,omitempty"`
	// Total, Done and Skipped count moved names: Done is the names this
	// run settled, Total adds those the old shards' listings still show
	// due to move, Skipped counts the due names parked after exhausting
	// their retry budget (resume retries them).
	Total   int `json:"total"`
	Done    int `json:"done"`
	Skipped int `json:"skipped"`
	// Epoch is the server's routing epoch: it increments every time
	// the ring configuration changes (reshard begin and finish), so a
	// watcher can tell "same numbers, new reshard" apart.
	Epoch int64 `json:"epoch"`
	// Err is the last run's terminal error, if any.
	Err string `json:"err,omitempty"`
}

// ReshardControl is what the HTTP admin surface needs from a
// resharder. internal/reshard implements it; the server only holds
// the interface, so serve never imports the mover.
type ReshardControl interface {
	// Start runs a reshard to the given shard count, asynchronously.
	// It fails if one is already pending or running.
	Start(to int) error
	// Resume continues a pending reshard, asynchronously.
	Resume() error
	// Status reports progress.
	Status() ReshardStatus
}

// SetReshardControl attaches the resharder the /admin/reshard
// endpoints drive. Attach it before serving traffic.
func (s *Server) SetReshardControl(rc ReshardControl) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rc = rc
}

// reshardControl returns the attached controller, if any.
func (s *Server) reshardControl() ReshardControl {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rc
}

// pendingReshardJournal reports whether root carries a pending
// reshard record.
func pendingReshardJournal(root string) bool {
	_, err := os.Stat(filepath.Join(root, ReshardJournalName))
	return err == nil
}

// Vnodes returns the configured virtual-node count per shard (0 means
// the default). A pending reshard records it so a resume under a
// different ring geometry is refused instead of moving names to the
// wrong shards.
func (s *Server) Vnodes() int { return s.cfg.Vnodes }

// Grow opens shard stores [current, to) under the serving root,
// creating any that do not exist yet with shard-00's code, block size
// and extent size. It is idempotent — a resume after a crash between
// directory creation and the first move re-runs it safely — and it
// does NOT touch the ring: new shards receive no traffic until
// BeginResharding installs the wider ring.
func (s *Server) Grow(to int) error {
	s.mu.RLock()
	cur, first := len(s.shards), s.shards[0].store
	s.mu.RUnlock()
	if to < cur {
		return fmt.Errorf("serve: cannot shrink %d shards to %d (only growing reshards are supported)", cur, to)
	}
	var added []*shard
	for i := cur; i < to; i++ {
		sh, err := s.openShard(i, first)
		if err != nil {
			return err
		}
		added = append(added, sh)
	}
	s.mu.Lock()
	s.shards = append(s.shards, added...)
	s.mu.Unlock()
	return nil
}

// BeginResharding switches the router to dual-ring mode: the primary
// ring covers every open shard (the post-reshard count), the fallback
// ring is rebuilt at fromShards, and inflight answers "is this name
// mid-move?" for the 503 path. Taking both rings from shard counts —
// not from the router's current state — makes the call idempotent, so
// a crash-resume can re-install the exact same routing.
func (s *Server) BeginResharding(fromShards int, inflight func(name string) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.oldRing = newRing(fromShards, s.cfg.Vnodes)
	s.ring = newRing(len(s.shards), s.cfg.Vnodes)
	s.inflight = inflight
	s.epoch++
}

// FinishResharding drops the fallback ring: every name is on its
// new-ring shard, single-ring routing is correct again.
func (s *Server) FinishResharding() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.oldRing = nil
	s.inflight = nil
	s.epoch++
}

// Resharding reports whether dual-ring routing is active.
func (s *Server) Resharding() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.oldRing != nil
}

// ReshardEpoch returns the routing epoch — incremented at every ring
// change (reshard begin and finish), 0 for a freshly opened server.
func (s *Server) ReshardEpoch() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// route is one name's resolved routing under the current epoch: the
// authoritative new-ring shard, plus the old-ring shard to fall back
// to when a reshard is active and the two rings disagree.
type route struct {
	cur    *shard
	curIdx int
	// old is nil when no reshard is active or both rings agree.
	old      *shard
	oldIdx   int
	inflight func(name string) bool
}

// routeFor resolves a name under the routing mutex and returns a
// stable snapshot; the actual I/O runs outside the lock.
func (s *Server) routeFor(name string) route {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rt := route{curIdx: s.ring.shardOf(name)}
	rt.cur = s.shards[rt.curIdx]
	if s.oldRing != nil {
		if oi := s.oldRing.shardOf(name); oi != rt.curIdx {
			rt.old, rt.oldIdx, rt.inflight = s.shards[oi], oi, s.inflight
		}
	}
	return rt
}

// fallbackErr classifies a double miss during a reshard: if the
// resharder says the name is mid-move, the honest answer is "try
// again shortly" (ErrMidMove -> 503), not 404.
func (s *Server) fallbackErr(name string, rt route, notFound error) error {
	if rt.inflight != nil && rt.inflight(name) {
		s.reg.Counter("reshard_midmove_unavailable_total").Inc()
		return fmt.Errorf("serve: %w (%q)", ErrMidMove, name)
	}
	return notFound
}
