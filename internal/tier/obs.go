package tier

import (
	"time"

	"repro/internal/obs"
)

// Metric names the daemon registers on its optional registry, also
// documented in docs/OBSERVABILITY.md (keep the two in sync).
const (
	metricDaemonTicks      = "daemon_ticks_total"
	metricDaemonMoves      = "daemon_moves_total"
	metricDaemonPromotions = "daemon_promotions_total"
	metricDaemonDemotions  = "daemon_demotions_total"
	metricDaemonDeferred   = "daemon_deferred_total"
	metricDaemonErrors     = "daemon_errors_total"
	metricDaemonBytesMoved = "daemon_bytes_moved_total"
	// metricDaemonScrubBytes is the block traffic the daemon's trickle
	// scrubber has verified from leftover move budget.
	metricDaemonScrubBytes = "daemon_scrub_bytes_total"
	// metricDaemonBucketTokens is the token-bucket byte balance after
	// the latest scan — negative when an oversized move ran into debt.
	metricDaemonBucketTokens = "daemon_bucket_tokens"
	metricDaemonTickNs       = "daemon_tick_ns"
)

// daemonObs holds the daemon's resolved metric handles, mirroring
// DaemonStats onto counters so one registry snapshot carries the
// daemon's work alongside the store's data-plane metrics.
type daemonObs struct {
	ticks, moves          *obs.Counter
	promotions, demotions *obs.Counter
	deferred, errs        *obs.Counter
	bytesMoved            *obs.Counter
	scrubBytes            *obs.Counter
	bucketTokens          *obs.Gauge
	tickNs                *obs.Histogram
}

func newDaemonObs(reg *obs.Registry) *daemonObs {
	return &daemonObs{
		ticks:        reg.Counter(metricDaemonTicks),
		moves:        reg.Counter(metricDaemonMoves),
		promotions:   reg.Counter(metricDaemonPromotions),
		demotions:    reg.Counter(metricDaemonDemotions),
		deferred:     reg.Counter(metricDaemonDeferred),
		errs:         reg.Counter(metricDaemonErrors),
		bytesMoved:   reg.Counter(metricDaemonBytesMoved),
		scrubBytes:   reg.Counter(metricDaemonScrubBytes),
		bucketTokens: reg.Gauge(metricDaemonBucketTokens),
		tickNs:       reg.Histogram(metricDaemonTickNs),
	}
}

// observeTick publishes one scan's outcome: the DaemonStats delta since
// the scan began (so every admit/defer/error branch is covered by a
// single call site), the scan's wall duration, and the bucket balance at
// the scan's clock. Caller holds d.mu.
func (o *daemonObs) observeTick(d *Daemon, before DaemonStats, now float64, elapsed time.Duration) {
	o.ticks.Add(int64(d.stats.Ticks - before.Ticks))
	o.moves.Add(int64(d.stats.Moves - before.Moves))
	o.promotions.Add(int64(d.stats.Promotions - before.Promotions))
	o.demotions.Add(int64(d.stats.Demotions - before.Demotions))
	o.deferred.Add(int64(d.stats.Deferred - before.Deferred))
	o.errs.Add(int64(d.stats.Errors - before.Errors))
	o.bytesMoved.Add(int64(d.stats.BytesMoved - before.BytesMoved))
	o.scrubBytes.Add(int64(d.stats.ScrubbedBytes - before.ScrubbedBytes))
	o.tickNs.Observe(elapsed.Nanoseconds())
	if d.bucket != nil {
		o.bucketTokens.Set(d.bucket.Available(now))
	}
}
