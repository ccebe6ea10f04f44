package hdfsraid

import (
	"fmt"

	"repro/internal/obs"
)

// Metric and trace names the store registers, also documented in
// docs/OBSERVABILITY.md (keep the two in sync; the CI smoke test greps
// the live endpoint for the core ones).
const (
	// Read path: whole-file Get latency, split by whether every symbol
	// was served from a healthy replica (intact) or at least one stripe
	// had to reconstruct around missing blocks (degraded).
	metricGetIntactNs   = "store_get_intact_ns"
	metricGetDegradedNs = "store_get_degraded_ns"
	// Single-block reads, same split: degraded means the block came
	// through a partial-parity read plan instead of a replica.
	metricReadBlockIntactNs   = "store_readblock_intact_ns"
	metricReadBlockDegradedNs = "store_readblock_degraded_ns"
	metricReadsDegraded       = "store_reads_degraded_total"
	metricBytesOut            = "store_bytes_out_total"

	// Ingest: Put and PutReader latency and bytes accepted, and the
	// known-zero symbols of shortened tail stripes that ingests and
	// moves (writeStripe) did not store.
	metricPutNs      = "store_put_ns"
	metricBytesIn    = "store_bytes_in_total"
	metricZeroElided = "store_zero_symbols_elided_total"

	// Ranged reads (ReadAt, the serving front door's HTTP Range path)
	// and deletes.
	metricReadAtNs = "store_readat_ns"
	metricDeleteNs = "store_delete_ns"
	metricDeletes  = "store_deletes_total"

	// Maintenance: repair and fsck pass durations and what they found.
	metricRepairNs             = "store_repair_ns"
	metricRepairBlocksRestored = "store_repair_blocks_restored_total"
	metricRepairTransfers      = "store_repair_transfers_total"
	metricFsckNs               = "store_fsck_ns"
	metricFsckMissing          = "store_fsck_missing_total"
	metricFsckCorrupt          = "store_fsck_corrupt_total"
	metricFsckOrphans          = "store_fsck_orphans_total"

	// Transcode pipeline, per-stage: read (source blocks through the
	// old code, per stripe), encode (new code, per stripe), write
	// (staged replicas, per stripe), swap (the destructive promote
	// phase, per move).
	metricTcReadNs        = "transcode_read_ns"
	metricTcEncodeNs      = "transcode_encode_ns"
	metricTcWriteNs       = "transcode_write_ns"
	metricTcSwapNs        = "transcode_swap_ns"
	metricTcMoves         = "transcode_moves_total"
	metricTcBytesMoved    = "transcode_bytes_moved_total"
	metricTcBlocksRead    = "transcode_blocks_read_total"
	metricTcBlocksWritten = "transcode_blocks_written_total"

	// Journal recovery outcomes.
	metricJournalReplayed   = "journal_replayed_total"
	metricJournalRolledBack = "journal_rolled_back_total"
	metricJournalOrphans    = "journal_orphans_total"

	// Scrubbing and self-healing: Scrub pass durations, frames/bytes
	// verified, latent errors found (corrupt + missing), and how each
	// found error ended — healed by the scrubber, healed inline by a
	// read (read_heal), or unrepairable this pass. quarantine counts
	// bad frames captured under .quarantine/.
	metricScrubNs           = "store_scrub_ns"
	metricScrubBytes        = "scrub_bytes_total"
	metricScrubBlocks       = "scrub_blocks_total"
	metricScrubFound        = "scrub_corrupt_found_total"
	metricScrubHealed       = "scrub_healed_total"
	metricScrubUnrepairable = "scrub_unrepairable_total"
	metricReadHeal          = "read_heal_total"
	metricQuarantine        = "quarantine_total"

	// traceJournal is the event ring recording every journal state
	// transition and recovery outcome.
	traceJournal = "journal"
	// traceHeal records the healing lifecycle: quarantine (bad frame
	// captured), healed (repaired frame written back), unquarantine
	// (reconstruction failed, captured frame restored), unrepairable
	// (a scrub-found error healing could not fix this pass).
	traceHeal = "heal"
)

// storeObs bundles the store's pre-resolved metric handles so hot
// paths never touch the registry's name map. A nil *storeObs disables
// instrumentation entirely (one predictable branch per site) — the
// overhead benchmark gate flips it to price the instrumentation.
type storeObs struct {
	reg *obs.Registry

	// readNs is indexed by readKind: the latency histograms of Get,
	// ReadBlockInto and ReadAt (whose two sides are one histogram).
	readNs [3]readHists

	putNs, deleteNs                   *obs.Histogram
	repairNs, fsckNs                  *obs.Histogram
	tcRead, tcEncode, tcWrite, tcSwap *obs.Histogram
	scrubNs                           *obs.Histogram

	bytesIn, bytesOut               *obs.Counter
	zeroElided                      *obs.Counter
	deletes                         *obs.Counter
	readsDegraded                   *obs.Counter
	repairBlocks, repairTransfers   *obs.Counter
	fsckMissing, fsckCorrupt        *obs.Counter
	fsckOrphans                     *obs.Counter
	tcMoves, tcBytesMoved           *obs.Counter
	tcBlocksRead, tcBlocksWritten   *obs.Counter
	jReplayed, jRolledBack, jOrphan *obs.Counter
	scrubBytes, scrubBlocks         *obs.Counter
	scrubFound, scrubHealed         *obs.Counter
	scrubUnrepairable               *obs.Counter
	readHeal, quarantine            *obs.Counter

	journal *obs.Trace
	heal    *obs.Trace
}

// readHists is one read entry point's latency split.
type readHists struct{ intact, degraded *obs.Histogram }

// newStoreObs builds the store's registry and resolves every handle.
func newStoreObs() *storeObs {
	reg := obs.NewRegistry()
	return &storeObs{
		reg: reg,
		readNs: [3]readHists{
			readGet:   {reg.Histogram(metricGetIntactNs), reg.Histogram(metricGetDegradedNs)},
			readBlock: {reg.Histogram(metricReadBlockIntactNs), reg.Histogram(metricReadBlockDegradedNs)},
			readAt:    {reg.Histogram(metricReadAtNs), reg.Histogram(metricReadAtNs)},
		},
		putNs:             reg.Histogram(metricPutNs),
		deleteNs:          reg.Histogram(metricDeleteNs),
		deletes:           reg.Counter(metricDeletes),
		repairNs:          reg.Histogram(metricRepairNs),
		fsckNs:            reg.Histogram(metricFsckNs),
		tcRead:            reg.Histogram(metricTcReadNs),
		tcEncode:          reg.Histogram(metricTcEncodeNs),
		tcWrite:           reg.Histogram(metricTcWriteNs),
		tcSwap:            reg.Histogram(metricTcSwapNs),
		bytesIn:           reg.Counter(metricBytesIn),
		bytesOut:          reg.Counter(metricBytesOut),
		zeroElided:        reg.Counter(metricZeroElided),
		readsDegraded:     reg.Counter(metricReadsDegraded),
		repairBlocks:      reg.Counter(metricRepairBlocksRestored),
		repairTransfers:   reg.Counter(metricRepairTransfers),
		fsckMissing:       reg.Counter(metricFsckMissing),
		fsckCorrupt:       reg.Counter(metricFsckCorrupt),
		fsckOrphans:       reg.Counter(metricFsckOrphans),
		tcMoves:           reg.Counter(metricTcMoves),
		tcBytesMoved:      reg.Counter(metricTcBytesMoved),
		tcBlocksRead:      reg.Counter(metricTcBlocksRead),
		tcBlocksWritten:   reg.Counter(metricTcBlocksWritten),
		jReplayed:         reg.Counter(metricJournalReplayed),
		jRolledBack:       reg.Counter(metricJournalRolledBack),
		jOrphan:           reg.Counter(metricJournalOrphans),
		scrubNs:           reg.Histogram(metricScrubNs),
		scrubBytes:        reg.Counter(metricScrubBytes),
		scrubBlocks:       reg.Counter(metricScrubBlocks),
		scrubFound:        reg.Counter(metricScrubFound),
		scrubHealed:       reg.Counter(metricScrubHealed),
		scrubUnrepairable: reg.Counter(metricScrubUnrepairable),
		readHeal:          reg.Counter(metricReadHeal),
		quarantine:        reg.Counter(metricQuarantine),
		journal:           reg.Trace(traceJournal, obs.DefaultTraceCap),
		heal:              reg.Trace(traceHeal, obs.DefaultTraceCap),
	}
}

// Obs returns the store's metrics registry: every data-plane and
// journal instrument the store maintains, for snapshotting (hdfscli
// stats), live serving (the daemon's -metrics endpoint), or wiring a
// daemon's own metrics into the same namespace.
func (s *Store) Obs() *obs.Registry {
	if s.obs == nil {
		return nil
	}
	return s.obs.reg
}

// journalEvent records one journal state transition in the store's
// event trace: the lifecycle record of what the move machinery
// actually did, complementing the counters.
func (s *Store) journalEvent(typ string, in *TranscodeIntent) {
	if s.obs == nil {
		return
	}
	e := obs.Event{Type: typ, Ext: -1}
	if in != nil {
		e.Name = in.File
		e.Ext = in.Extent
		e.Detail = fmt.Sprintf("%s -> %s", in.From, in.To)
	}
	s.obs.journal.Emit(e)
}
