package tier

import (
	"os"
	"path/filepath"
	"sync"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/tier/accesslog"
)

// heatFileName is the heat snapshot inside a store directory and
// heatLogName the log of access records since: together one
// durable.SnapLog, the same snapshot + generation + log protocol the
// store's manifest uses.
const (
	heatFileName = "tier-heat.json"
	heatLogName  = "tier-heat.log"
)

// checkpointFloor floors the checkpoint trigger: a flush folds the log
// into the snapshot once the log outgrows the snapshot, or this. A
// variable only so that tests can reach a checkpoint with few records.
var checkpointFloor int64 = 1 << 20

// HeatLog couples an in-memory Tracker with the store's shared heat
// log: touches bump the tracker and join a batch (O(1), no I/O), a
// batch that is due is appended in one write and one fsync, Refresh
// tails records other processes appended, and a checkpoint folds the
// log into the tier-heat.json snapshot. Durable heat = snapshot + log;
// a kill loses at most the unflushed batch.
//
// Concurrent use across processes is the point: per-shard servers
// append while the tier daemon tails, and hdfscli one-shots do both
// briefly. Every flush and checkpoint runs under the exclusive flock on
// the log file and first tails what others appended, so a handle
// appends at the log's true end and a checkpoint folds every record
// exactly once; another process's flush therefore waits out a
// checkpoint (one marshal and two fsyncs, once per ≥ 1 MiB of log).
type HeatLog struct {
	// Obs, when set, receives accesslog_* counters. Set before use.
	Obs *obs.Registry

	halfLife float64
	tracker  *Tracker

	mu     sync.Mutex // guards everything below, and orders touches with flushes
	sl     *durable.SnapLog
	w      *accesslog.Writer
	closed bool
}

// OpenHeatLog opens the heat state of storeDir: the tier-heat.json
// snapshot with every intact record of tier-heat.log applied. Nothing
// is written until a batch is flushed.
func OpenHeatLog(storeDir string, halfLife float64, _ accesslog.Options) (*HeatLog, error) {
	w, err := accesslog.NewWriter()
	if err != nil {
		return nil, err
	}
	h := &HeatLog{halfLife: halfLife, tracker: NewTracker(halfLife), w: w}
	h.sl, err = durable.OpenSnapLog(filepath.Join(storeDir, heatFileName), filepath.Join(storeDir, heatLogName))
	if err != nil {
		return nil, err
	}
	if err := h.Refresh(); err != nil {
		h.sl.Close()
		return nil, err
	}
	return h, nil
}

// Tracker returns the live in-memory heat view. Callers may read it
// freely (it has its own lock); its counters include this process's
// unflushed touches.
func (h *HeatLog) Tracker() *Tracker { return h.tracker }

func (h *HeatLog) count(name string, n int) {
	if r := h.Obs; r != nil {
		r.Counter(name).Add(int64(n))
	}
}

// touchTracker folds one record into a tracker.
func touchTracker(t *Tracker, rec accesslog.Record) {
	t.TouchExtentN(rec.Name, rec.Ext, rec.N, rec.Time)
}

// refreshLocked tails what other handles appended — a record is applied
// to the live view unless this handle appended it and so already counted
// it — or, when one of them checkpointed since, and at open, rebuilds the
// view from snapshot + log (this handle's flushed records included) plus
// the batch it has not flushed yet, and only then swaps it in. A
// CRC-valid record that does not decode (a newer writer's) is skipped
// and counted, never an error: an error would fail every later flush
// here and leave the log marked torn at that record, where an append
// would cut off it and everything behind it. Caller holds mu and the
// flock.
func (h *HeatLog) refreshLocked() error {
	var fresh *Tracker
	err := h.sl.Refresh(func(raw []byte) (gen int64, err error) {
		fresh, gen, err = restoreTracker(raw, h.halfLife)
		return gen, err
	}, func(raw []byte) error {
		rec, ok := accesslog.Decode(raw)
		switch {
		case !ok:
			h.count("accesslog_skipped_records_total", 1)
		case fresh != nil:
			touchTracker(fresh, rec)
		case rec.Src != h.w.ID():
			touchTracker(h.tracker, rec)
			h.count("accesslog_tailed_records_total", 1)
		}
		return nil
	})
	if err != nil || fresh == nil {
		return err
	}
	for _, raw := range h.w.Pending() {
		if rec, ok := accesslog.Decode(raw); ok {
			touchTracker(fresh, rec)
		}
	}
	h.tracker.adopt(fresh)
	h.count("accesslog_reloads_total", 1)
	return nil
}

// TouchExtent records an extent access: tracker bump plus O(1)
// batching.
func (h *HeatLog) TouchExtent(name string, ext int, now float64) error {
	rec := accesslog.Record{Name: name, Ext: ext, N: 1, Time: now}
	h.count("accesslog_appends_total", 1)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return os.ErrClosed
	}
	touchTracker(h.tracker, rec)
	if h.w.Append(rec) {
		return h.flushLocked(false)
	}
	return nil
}

// flushLocked is the one path to disk: exclusive flock → refresh (so
// the append lands at the log's true end and foreign records are
// tailed for free) → the pending batch in one write and one fsync →
// a checkpoint when asked for or when the log has outgrown the
// snapshot → unlock. After the append the live view is exactly
// snapshot + log, which is what makes it the checkpoint's content. A
// checkpoint with no record to fold writes nothing. Caller holds mu.
func (h *HeatLog) flushLocked(fold bool) error {
	batch := h.w.Pending()
	if len(batch) == 0 && !fold {
		return nil
	}
	if err := h.sl.Lock(); err != nil {
		return err
	}
	defer h.sl.Unlock()
	if err := h.refreshLocked(); err != nil {
		return err
	}
	if len(batch) > 0 {
		before := h.sl.Size()
		if err := h.sl.Append(batch...); err != nil {
			return err
		}
		h.count("accesslog_flushes_total", 1)
		h.count("accesslog_flush_records_total", len(batch))
		h.count("accesslog_flush_bytes_total", int(h.sl.Size()-before))
		h.w.Reset()
	}
	if h.sl.Size() == 0 || !(fold || h.sl.Outgrown(checkpointFloor)) {
		return nil
	}
	if err := h.sl.Checkpoint(h.tracker.snapshot); err != nil {
		return err
	}
	h.count("accesslog_compactions_total", 1)
	return nil
}

// Refresh tails records appended by other processes since the last
// Refresh (or open) into the tracker — O(new records). Records this
// handle appended are skipped by writer identity: they are already in
// the tracker. If another process checkpointed since, the view is
// rebuilt from snapshot + log.
func (h *HeatLog) Refresh() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return os.ErrClosed
	}
	if err := h.sl.Lock(); err != nil {
		return err
	}
	defer h.sl.Unlock()
	return h.refreshLocked()
}

// Flush forces the pending batch to disk.
func (h *HeatLog) Flush() error { return h.sync(false) }

// Compact flushes, then folds the whole log into the tier-heat.json
// snapshot — the checkpoint a flush makes by itself once the log
// outgrows the snapshot, forced: what a clean shutdown does so that the
// next open replays nothing. A kill at any point of it neither loses
// nor double-counts a flushed record (see durable.SnapLog.Checkpoint).
func (h *HeatLog) Compact() error { return h.sync(true) }

func (h *HeatLog) sync(fold bool) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return os.ErrClosed
	}
	return h.flushLocked(fold)
}

// Close flushes and releases the log. It does not compact; call
// Compact first for a tight snapshot (daemons and servers do,
// one-shots need not).
func (h *HeatLog) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	h.closed = true
	err := h.flushLocked(false)
	if cerr := h.sl.Close(); err == nil {
		err = cerr
	}
	return err
}
