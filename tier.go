package hadoopcodes

import "repro/internal/tier"

// Adaptive hot/cold tiering: the paper's double-replication codes buy
// data locality and cheap repair for hot data at ~2.2x storage, while
// RS(14,10) stores cold data at 1.4x. The tier subsystem moves extents
// between the two as their access heat changes: a decayed-access
// HeatTracker fed by the store's extent read hook, a TierPolicy with
// promote/demote hysteresis, and a TierDaemon that scans the policy on
// an interval or once and executes its moves by online transcoding.

// HeatTracker tracks per-extent access heat with exponential decay.
type HeatTracker = tier.Tracker

// NewHeatTracker returns a tracker whose counters halve every
// halfLife seconds.
func NewHeatTracker(halfLife float64) *HeatTracker { return tier.NewTracker(halfLife) }

// TierPolicy maps decayed heat to hot/cold code membership with
// hysteresis.
type TierPolicy = tier.Policy

// TierDaemon is the autonomous background rebalancer: it scans the
// tiering policy on an interval and executes moves hottest first
// under a token-bucket transcode byte budget.
type TierDaemon = tier.Daemon

// TierDaemonConfig parameterizes the rebalance daemon's scan interval
// and byte budget.
type TierDaemonConfig = tier.DaemonConfig

// NewTierDaemon returns a stopped rebalance daemon tiering extents
// inside an on-disk store by the heat in tracker. Feed the tracker from
// the store's extent read hook, as ExampleNewTierDaemon does; drive the
// daemon with Start/Stop on the wall clock or Tick on a virtual one
// (one Tick of a daemon with no budget is a one-shot rebalance).
func NewTierDaemon(s *Store, policy TierPolicy, tracker *HeatTracker, cfg TierDaemonConfig) (*TierDaemon, error) {
	return tier.NewDaemon(tier.StoreTarget{Store: s}, policy, tracker, cfg)
}
