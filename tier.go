package hadoopcodes

import (
	"math/rand"

	"repro/internal/hdfsraid"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/workload"
)

// Adaptive hot/cold tiering: the paper's double-replication codes buy
// data locality and cheap repair for hot data at ~2.2x storage, while
// RS(14,10) stores cold data at 1.4x. The tier subsystem moves files
// between the two as their access heat changes: a decayed-access
// HeatTracker fed by store read hooks, a TierPolicy with promote/
// demote hysteresis, and a TierManager that executes moves by online
// transcoding.

// HeatTracker tracks per-file access heat with exponential decay.
type HeatTracker = tier.Tracker

// NewHeatTracker returns a tracker whose counters halve every
// halfLife seconds.
func NewHeatTracker(halfLife float64) *HeatTracker { return tier.NewTracker(halfLife) }

// TierPolicy maps decayed heat to hot/cold code membership with
// hysteresis.
type TierPolicy = tier.Policy

// TierMove is one promote/demote decision.
type TierMove = tier.Move

// TierMoveResult is one executed move with its traffic bill.
type TierMoveResult = tier.MoveResult

// TierManager wires tracker, policy and a store together.
type TierManager = tier.Manager

// TierTarget is a store the manager can tier data in, extent by
// extent: heat, policy and moves all run per extent, so a hot region
// of a large file promotes on its own. The on-disk store and the
// simulated cluster target both satisfy it.
type TierTarget = tier.Target

// NewTierManager returns a manager tiering files inside an on-disk
// store. Hook heat tracking into the data path with:
//
//	store.OnRead = func(name string) { m.OnRead(name, now()) }
func NewTierManager(s *Store, policy TierPolicy, tracker *HeatTracker) (*TierManager, error) {
	return tier.NewManager(tier.StoreTarget{Store: s}, policy, tracker)
}

// TranscodeReport summarizes one online transcode between codes.
type TranscodeReport = hdfsraid.TranscodeReport

// RecoverReport summarizes the recovery pass OpenStore runs: the stale
// block files a killed extent move left behind, swept.
type RecoverReport = hdfsraid.RecoverReport

// TierDaemon is the autonomous background rebalancer: it scans the
// tiering policy on an interval and executes moves hottest file
// first under a token-bucket transcode byte budget.
type TierDaemon = tier.Daemon

// TierDaemonConfig parameterizes the rebalance daemon's scan interval
// and byte budget.
type TierDaemonConfig = tier.DaemonConfig

// TierDaemonStats counts the daemon's scans, moves, deferrals and
// bytes moved.
type TierDaemonStats = tier.DaemonStats

// NewTierDaemon returns a stopped rebalance daemon for the manager;
// drive it with Start/Stop on the wall clock or Tick on a virtual one.
func NewTierDaemon(m *TierManager, cfg TierDaemonConfig) (*TierDaemon, error) {
	return tier.NewDaemon(m, cfg)
}

// TierClusterTarget tiers files over the simulated cluster placement
// instead of disk, for large experiments (see cmd/tiersim).
type TierClusterTarget = tier.ClusterTarget

// NewTierClusterTarget returns an empty simulated-cluster tier target.
func NewTierClusterTarget(nodes, blocksPerFile int, rng *rand.Rand) *TierClusterTarget {
	return tier.NewClusterTarget(nodes, blocksPerFile, rng)
}

// NewClusterTierManager returns a manager tiering files over a
// simulated cluster target.
func NewClusterTierManager(ct *TierClusterTarget, policy TierPolicy, tracker *HeatTracker) (*TierManager, error) {
	return tier.NewManager(ct, policy, tracker)
}

// TierReplayStats summarizes a trace replay under a tiering policy.
type TierReplayStats = tier.ReplayStats

// ReplayTiering drives a manager from an access trace on a
// discrete-event engine, rebalancing every rebalanceEvery virtual
// seconds. Accesses carry the data block they hit, so heat accrues per
// extent.
func ReplayTiering(eng *sim.Engine, trace []WorkloadAccess, m *TierManager,
	rebalanceEvery float64, onAccess func(a WorkloadAccess, now float64) error) (TierReplayStats, error) {
	return tier.Replay(eng, trace, m, rebalanceEvery, onAccess)
}

// NewSimEngine returns a fresh discrete-event engine (virtual clock at
// zero).
func NewSimEngine() *sim.Engine { return sim.NewEngine() }

// WorkloadAccess is one read in a file-access trace.
type WorkloadAccess = workload.Access

// WorkloadTraceConfig describes a synthetic Zipf-skewed access trace.
type WorkloadTraceConfig = workload.TraceConfig

// ZipfTrace generates a deterministic Zipf-skewed access trace.
func ZipfTrace(cfg WorkloadTraceConfig) ([]WorkloadAccess, error) {
	return workload.ZipfTrace(cfg)
}

// TraceFileName returns the canonical name of trace file i.
func TraceFileName(i int) string { return workload.TraceFileName(i) }
