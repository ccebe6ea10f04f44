package hdfsraid

import (
	"time"

	"repro/internal/obs"
)

// hist, counter and trace name the store's instruments: each indexes
// its handle table in storeObs and its name table below. The names are
// also documented in docs/OBSERVABILITY.md (keep the two in sync; the
// CI smoke test greps the live endpoint for the core ones).
type (
	hist    int
	counter int
	trace   int
)

const (
	hGetIntact hist = iota
	hGetDegraded
	hReadBlockIntact
	hReadBlockDegraded
	hReadAt
	hPut
	hDelete
	hRepair
	hFsck
	hTcRead
	hTcEncode
	hTcWrite
	hScrub
	numHists
)

var histNames = [numHists]string{
	// Read path: whole-file Get latency, split by whether every symbol
	// was served from a healthy replica (intact) or at least one stripe
	// had to reconstruct around missing blocks (degraded).
	hGetIntact:   "store_get_intact_ns",
	hGetDegraded: "store_get_degraded_ns",
	// Single-block reads, same split: degraded means the block came
	// through a partial-parity read plan instead of a replica.
	hReadBlockIntact:   "store_readblock_intact_ns",
	hReadBlockDegraded: "store_readblock_degraded_ns",
	// Ranged reads (ReadAt, the serving front door's HTTP Range path;
	// both sides of the split are this one histogram), ingest (Put and
	// PutReader) and deletes.
	hReadAt: "store_readat_ns",
	hPut:    "store_put_ns",
	hDelete: "store_delete_ns",
	// Maintenance pass durations.
	hRepair: "store_repair_ns",
	hFsck:   "store_fsck_ns",
	hScrub:  "store_scrub_ns",
	// Transcode pipeline, per-stage: read (source blocks through the
	// old code, per stripe), encode (new code, per stripe), write
	// (the new generation's replicas, per stripe).
	hTcRead:   "transcode_read_ns",
	hTcEncode: "transcode_encode_ns",
	hTcWrite:  "transcode_write_ns",
}

// readHists is each read entry point's latency split, indexed by
// readKind.
var readHists = [...]struct{ intact, degraded hist }{
	readGet:   {hGetIntact, hGetDegraded},
	readBlock: {hReadBlockIntact, hReadBlockDegraded},
	readAt:    {hReadAt, hReadAt},
}

const (
	cReadsDegraded counter = iota
	cBytesOut
	cBlockReadBytes
	cBytesIn
	cZeroElided
	cDeletes
	cRepairBlocks
	cRepairTransfers
	cFsckMissing
	cFsckCorrupt
	cFsckOrphans
	cTcMoves
	cTcBytesMoved
	cTcBlocksRead
	cTcBlocksWritten
	cJournalOrphans
	cLogAppends
	cLogBytes
	cCheckpoints
	cScrubBytes
	cScrubBlocks
	cScrubFound
	cScrubHealed
	cScrubUnrepairable
	cReadHeal
	cQuarantine
	cCacheHits
	cCacheMisses
	cCacheFills
	cCacheEvictions
	numCounters
)

var counterNames = [numCounters]string{
	cReadsDegraded: "store_reads_degraded_total",
	cBytesOut:      "store_bytes_out_total",
	// Bytes every block read took from block files, checksum tables
	// included: over store_bytes_out_total, the read amplification.
	cBlockReadBytes: "store_block_read_bytes_total",
	// Ingest: bytes accepted, and the known-zero symbols of shortened
	// tail stripes that ingests and moves (writeStripe) did not store.
	cBytesIn:    "store_bytes_in_total",
	cZeroElided: "store_zero_symbols_elided_total",
	cDeletes:    "store_deletes_total",
	// What the repair and fsck passes found.
	cRepairBlocks:    "store_repair_blocks_restored_total",
	cRepairTransfers: "store_repair_transfers_total",
	cFsckMissing:     "store_fsck_missing_total",
	cFsckCorrupt:     "store_fsck_corrupt_total",
	cFsckOrphans:     "store_fsck_orphans_total",
	// Committed transcodes and their traffic.
	cTcMoves:         "transcode_moves_total",
	cTcBytesMoved:    "transcode_bytes_moved_total",
	cTcBlocksRead:    "transcode_blocks_read_total",
	cTcBlocksWritten: "transcode_blocks_written_total",
	// Stale block files the recovery pass swept.
	cJournalOrphans: "journal_orphans_total",
	// Manifest commits: appends to manifest.log (one fsync each), the
	// bytes they wrote, and snapshots the log was folded into.
	cLogAppends:  "store_manifest_log_appends_total",
	cLogBytes:    "store_manifest_log_bytes",
	cCheckpoints: "store_manifest_checkpoints_total",
	// Scrubbing and self-healing: frames/bytes verified, latent errors
	// found (corrupt + missing), and how each found error ended —
	// healed by the scrubber, healed inline by a read (read_heal), or
	// unrepairable this pass. quarantine counts bad frames captured
	// under .quarantine/.
	cScrubBytes:        "scrub_bytes_total",
	cScrubBlocks:       "scrub_blocks_total",
	cScrubFound:        "scrub_corrupt_found_total",
	cScrubHealed:       "scrub_healed_total",
	cScrubUnrepairable: "scrub_unrepairable_total",
	cReadHeal:          "read_heal_total",
	cQuarantine:        "quarantine_total",
	// The read cache, per extent, counted by the store whose read it
	// was: served from memory, read from blocks with a cache attached,
	// admitted, pushed out to make room (whichever store's they were).
	cCacheHits:      "store_cache_hits_total",
	cCacheMisses:    "store_cache_misses_total",
	cCacheFills:     "store_cache_fills_total",
	cCacheEvictions: "store_cache_evictions_total",
}

// cacheBytesName is the one gauge: what the attached read cache held,
// all stores' of it, when this store last filled or dropped from it.
const cacheBytesName = "store_cache_bytes"

const (
	// traceJournal is the event ring recording every committed extent
	// move (moved) and recovery outcome (orphan_sweep, recovery_skipped).
	traceJournal trace = iota
	// traceHeal records the healing lifecycle: quarantine (bad frame
	// captured), healed (repaired frame written back), unquarantine
	// (reconstruction failed, captured frame restored), unrepairable
	// (a scrub-found error healing could not fix this pass).
	traceHeal
	numTraces
)

var traceNames = [numTraces]string{traceJournal: "journal", traceHeal: "heal"}

// storeObs bundles the store's pre-resolved metric handles so hot
// paths never touch the registry's name map. Every method is safe on a
// nil receiver, where it does nothing — not even read the clock: that
// is the one place instrumentation is switched off, and only the
// overhead benchmark gate does it, to price the instrumentation. Every
// store buildStore returns is instrumented.
type storeObs struct {
	reg        *obs.Registry
	hists      [numHists]*obs.Histogram
	counters   [numCounters]*obs.Counter
	traces     [numTraces]*obs.Trace
	cacheBytes *obs.Gauge
}

// newStoreObs builds the store's registry and resolves every handle.
func newStoreObs() *storeObs {
	o := &storeObs{reg: obs.NewRegistry()}
	o.cacheBytes = o.reg.Gauge(cacheBytesName)
	for h, name := range histNames {
		o.hists[h] = o.reg.Histogram(name)
	}
	for c, name := range counterNames {
		o.counters[c] = o.reg.Counter(name)
	}
	for t, name := range traceNames {
		o.traces[t] = o.reg.Trace(name, obs.DefaultTraceCap)
	}
	return o
}

// now starts a latency measurement that since finishes.
func (o *storeObs) now() time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}

// since records the time elapsed from start (a value now returned) in
// h and returns the instant it read, so back-to-back stages share one
// clock read.
func (o *storeObs) since(h hist, start time.Time) time.Time {
	if o == nil {
		return time.Time{}
	}
	end := time.Now()
	o.hists[h].Observe(end.Sub(start).Nanoseconds())
	return end
}

// lap returns the time elapsed since start (a value now returned), for
// a latency summed over several intervals; observe records one.
func (o *storeObs) lap(start time.Time) time.Duration {
	if o == nil {
		return 0
	}
	return time.Since(start)
}

func (o *storeObs) observe(h hist, d time.Duration) {
	if o != nil {
		o.hists[h].Observe(d.Nanoseconds())
	}
}

// cacheLevel publishes the read cache's current size.
func (o *storeObs) cacheLevel(c *ReadCache) {
	if o != nil {
		o.cacheBytes.Set(float64(c.Bytes()))
	}
}

// add increments counter c by n.
func (o *storeObs) add(c counter, n int64) {
	if o != nil {
		o.counters[c].Add(n)
	}
}

// emit appends one event to trace t.
func (o *storeObs) emit(t trace, e obs.Event) {
	if o != nil {
		o.traces[t].Emit(e)
	}
}

// Obs returns the store's metrics registry: every data-plane and
// move instrument the store maintains, for snapshotting (hdfscli
// stats), live serving (the daemon's -metrics endpoint), or wiring a
// daemon's own metrics into the same namespace.
func (s *Store) Obs() *obs.Registry { return s.obs.reg }
