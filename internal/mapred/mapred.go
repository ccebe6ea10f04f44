// Package mapred is the MapReduce execution simulator used to reproduce
// the paper's Figures 4 and 5: a JobTracker with Hadoop's delay
// scheduler (and, as the paper's future-work extension, the peeling
// scheduler) drives map and reduce tasks over the simulated cluster and
// network, accounting job time, data locality, and network traffic.
//
// The model follows the paper's set-ups: map tasks read one input block
// each — locally when a replica is on the node, over the network
// otherwise, including partial-parity degraded reads when both replicas
// are down; map outputs shuffle to reduce tasks; speculative execution
// and load caps are off.
package mapred

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Params are the execution-rate knobs of the simulated Hadoop build.
type Params struct {
	// MapMBps is the local map task processing rate (read + map +
	// spill) in MB/s.
	MapMBps float64
	// ReduceMBps is the reduce merge+write rate in MB/s.
	ReduceMBps float64
	// HeartbeatS is the TaskTracker heartbeat interval in seconds.
	HeartbeatS float64
	// DelaySkips is the delay-scheduling budget: the number of
	// heartbeat offers a job declines for want of locality before
	// accepting a remote slot. Zero means one offer per node (the
	// paper's configuration); negative disables the delay entirely
	// (remote tasks are taken immediately).
	DelaySkips int
	// Peeling switches map-task selection to the degree-guided peeling
	// rule (the paper's future-work scheduler).
	Peeling bool
	// JobOverheadS is the fixed job start-up/tear-down cost (JVM
	// launches, job setup tasks) added to the makespan.
	JobOverheadS float64
	// OnlineRepair launches the RaidNode's rebuild of the down nodes
	// concurrently with the job (the paper notes repair jobs run as MR
	// jobs): the repair plans' transfers share the NICs with job
	// traffic, and their bytes are reported in Metrics.RepairBytes.
	OnlineRepair bool
	// StragglerFraction marks this share of nodes as stragglers whose
	// map and reduce work runs StragglerSlowdown times slower —
	// heterogeneity like the paper's commodity-laptop test bed. Zero
	// disables the model.
	StragglerFraction float64
	// StragglerSlowdown is the slow nodes' compute multiplier
	// (default 2 when a fraction is set).
	StragglerSlowdown float64
}

// DefaultParams returns rates calibrated for the paper's commodity
// test beds.
func DefaultParams() Params {
	return Params{MapMBps: 6, ReduceMBps: 8, HeartbeatS: 0.5, DelaySkips: 0, JobOverheadS: 20}
}

// Metrics summarizes one job execution.
type Metrics struct {
	JobSeconds float64
	// HDFSReadBytes is remote map-input traffic — the paper's
	// per-code network-traffic metric.
	HDFSReadBytes float64
	// ShuffleBytes is map-to-reduce traffic, identical across coding
	// schemes for a given job.
	ShuffleBytes float64
	// RepairBytes is RaidNode rebuild traffic run concurrently with the
	// job (only with Params.OnlineRepair).
	RepairBytes float64
	// TotalNetworkBytes is everything the NICs carried.
	TotalNetworkBytes float64
	Maps              int
	LocalMaps         int
	DegradedMaps      int
	Reduces           int
}

// Locality returns the fraction of data-local map tasks.
func (m Metrics) Locality() float64 {
	if m.Maps == 0 {
		return 1
	}
	return float64(m.LocalMaps) / float64(m.Maps)
}

// Run simulates one job over the file on the given cluster. down lists
// failed nodes (degraded-mode execution); rng drives scheduling
// randomness.
func Run(cfg cluster.Config, file *cluster.File, spec workload.JobSpec, prm Params, down []int, rng *rand.Rand) (Metrics, error) {
	if err := spec.Validate(); err != nil {
		return Metrics{}, err
	}
	if spec.Maps > len(file.Blocks) {
		return Metrics{}, fmt.Errorf("mapred: job needs %d blocks, file has %d", spec.Maps, len(file.Blocks))
	}
	if prm.MapMBps <= 0 || prm.ReduceMBps <= 0 || prm.HeartbeatS <= 0 {
		return Metrics{}, fmt.Errorf("mapred: invalid params %+v", prm)
	}
	isDown := make([]bool, cfg.Nodes)
	for _, v := range down {
		if v < 0 || v >= cfg.Nodes {
			return Metrics{}, fmt.Errorf("mapred: invalid down node %d", v)
		}
		isDown[v] = true
	}
	var upNodes []int
	for v := 0; v < cfg.Nodes; v++ {
		if !isDown[v] {
			upNodes = append(upNodes, v)
		}
	}
	if len(upNodes) == 0 {
		return Metrics{}, fmt.Errorf("mapred: all nodes down")
	}

	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, cfg.Nodes, cfg.NetMBps*cluster.MB)
	s := &jobState{
		cfg: cfg, file: file, spec: spec, prm: prm, rng: rng,
		eng: eng, net: net, isDown: isDown,
		freeMap:    make([]int, cfg.Nodes),
		assigned:   make([]bool, spec.Maps),
		delayLimit: prm.DelaySkips,
	}
	if prm.DelaySkips == 0 {
		s.delayLimit = len(upNodes)
	}
	for _, v := range upNodes {
		s.freeMap[v] = cfg.MapSlots
	}
	s.mapsRemaining = spec.Maps
	s.unassigned = spec.Maps
	s.slowdown = make([]float64, cfg.Nodes)
	for v := range s.slowdown {
		s.slowdown[v] = 1
	}
	if prm.StragglerFraction > 0 {
		factor := prm.StragglerSlowdown
		if factor <= 1 {
			factor = 2
		}
		count := int(prm.StragglerFraction*float64(len(upNodes)) + 0.5)
		for _, i := range rng.Perm(len(upNodes))[:count] {
			s.slowdown[upNodes[i]] = factor
		}
	}
	// Local pending index: node -> tasks with a live replica there.
	s.localPending = make([][]int, cfg.Nodes)
	for ti := 0; ti < spec.Maps; ti++ {
		for _, r := range file.Blocks[ti].Replicas {
			if !isDown[r] {
				s.localPending[r] = append(s.localPending[r], ti)
			}
		}
	}
	s.placeReduces(upNodes)
	if prm.OnlineRepair && len(down) > 0 {
		if err := s.scheduleOnlineRepair(down); err != nil {
			return Metrics{}, err
		}
	}

	// Staggered heartbeats.
	for i, v := range upNodes {
		v := v
		eng.At(float64(i)*prm.HeartbeatS/float64(len(upNodes)), func() { s.heartbeat(v) })
	}
	eng.Run()
	if s.readErr != nil {
		return Metrics{}, s.readErr
	}
	if s.mapsRemaining > 0 || s.reducesRemaining > 0 {
		return Metrics{}, fmt.Errorf("mapred: job stalled with %d maps, %d reduces remaining",
			s.mapsRemaining, s.reducesRemaining)
	}
	s.metrics.JobSeconds = s.endTime + prm.JobOverheadS
	s.metrics.TotalNetworkBytes = net.TotalBytes()
	s.metrics.Maps = spec.Maps
	s.metrics.Reduces = spec.Reduces
	return s.metrics, nil
}

type jobState struct {
	cfg    cluster.Config
	file   *cluster.File
	spec   workload.JobSpec
	prm    Params
	rng    *rand.Rand
	eng    *sim.Engine
	net    *sim.Network
	isDown []bool

	freeMap      []int
	slowdown     []float64
	assigned     []bool
	localPending [][]int
	unassigned   int
	skips        int
	delayLimit   int

	reduceNode       []int
	reduceArrived    []int
	reduceBytes      []float64
	mapsRemaining    int
	reducesRemaining int
	endTime          float64
	metrics          Metrics
	readErr          error
}

// placeReduces assigns reduce tasks to up nodes round-robin by reduce
// slots.
func (s *jobState) placeReduces(upNodes []int) {
	s.reduceNode = make([]int, s.spec.Reduces)
	s.reduceArrived = make([]int, s.spec.Reduces)
	s.reduceBytes = make([]float64, s.spec.Reduces)
	s.reducesRemaining = s.spec.Reduces
	for r := 0; r < s.spec.Reduces; r++ {
		s.reduceNode[r] = upNodes[r%len(upNodes)]
	}
}

func (s *jobState) done() bool { return s.mapsRemaining == 0 && s.reducesRemaining == 0 }

// scheduleOnlineRepair plans each touched stripe's rebuild and puts
// the plan's transfers on the network at job start, modelling the
// RaidNode's repair MR job running alongside the user job. The
// destinations are the failed nodes' replacements, which reuse the
// same NIC slots.
func (s *jobState) scheduleOnlineRepair(down []int) error {
	isDown := make(map[int]bool, len(down))
	for _, v := range down {
		isDown[v] = true
	}
	for _, chosen := range s.file.StripeNodes {
		var local []int
		for i, v := range chosen {
			if isDown[v] {
				local = append(local, i)
			}
		}
		if len(local) == 0 {
			continue
		}
		plan, err := s.file.Code.PlanRepair(local)
		if err != nil {
			return fmt.Errorf("mapred: online repair: %w", err)
		}
		for _, tr := range plan.Transfers {
			from, to := chosen[tr.From], chosen[tr.To]
			s.metrics.RepairBytes += s.cfg.BlockBytes
			s.net.Transfer(from, to, s.cfg.BlockBytes, func() {})
		}
	}
	return nil
}

// heartbeat is one TaskTracker offer: the node takes map tasks while it
// has free slots, preferring local tasks and falling back to remote
// ones only after the job's delay budget is spent.
func (s *jobState) heartbeat(node int) {
	if s.done() || s.isDown[node] {
		return
	}
	for s.freeMap[node] > 0 && s.unassigned > 0 {
		ti := s.pickLocal(node)
		if ti >= 0 {
			s.launchMap(ti, node, true)
			s.skips = 0
			continue
		}
		if s.delayLimit < 0 || s.skips >= s.delayLimit {
			ti = s.pickAny()
			if ti >= 0 {
				s.launchMap(ti, node, false)
				continue
			}
		}
		s.skips++
		break
	}
	if s.unassigned > 0 {
		s.eng.After(s.prm.HeartbeatS, func() { s.heartbeat(node) })
	}
}

// pickLocal selects a pending task with a replica on the node: a random
// one under delay scheduling, the most replica-constrained one under
// peeling.
func (s *jobState) pickLocal(node int) int {
	// Compact the lazy queue.
	q := s.localPending[node][:0]
	for _, ti := range s.localPending[node] {
		if !s.assigned[ti] {
			q = append(q, ti)
		}
	}
	s.localPending[node] = q
	if len(q) == 0 {
		return -1
	}
	if !s.prm.Peeling {
		return q[s.rng.Intn(len(q))]
	}
	best, bestDeg := -1, 1<<30
	for _, ti := range q {
		deg := 0
		for _, r := range s.file.Blocks[ti].Replicas {
			if !s.isDown[r] && s.freeMap[r] > 0 {
				deg++
			}
		}
		if deg < bestDeg {
			best, bestDeg = ti, deg
		}
	}
	return best
}

// pickAny returns the first unassigned task (FIFO, like Hadoop's task
// list scan).
func (s *jobState) pickAny() int {
	for ti := 0; ti < s.spec.Maps; ti++ {
		if !s.assigned[ti] {
			return ti
		}
	}
	return -1
}

func (s *jobState) launchMap(ti, node int, local bool) {
	s.assigned[ti] = true
	s.unassigned--
	s.freeMap[node]--
	compute := s.cfg.BlockBytes * s.slowdown[node] / (s.prm.MapMBps * cluster.MB)
	if local {
		s.metrics.LocalMaps++
		s.eng.After(compute, func() { s.mapDone(ti, node) })
		return
	}
	fetches, isLocal, err := s.file.ReadPlan(ti, func(v int) bool { return s.isDown[v] }, node)
	if err != nil {
		// Unreadable block (too many failures for the code): the job
		// stalls; Run reports the cause.
		if s.readErr == nil {
			s.readErr = fmt.Errorf("mapred: block %d unreadable: %w", ti, err)
		}
		return
	}
	if isLocal {
		// A replica is local after all (the scheduler's remote choice
		// landed on a replica holder): count it local.
		s.metrics.LocalMaps++
		s.eng.After(compute, func() { s.mapDone(ti, node) })
		return
	}
	if len(fetches) > 1 {
		s.metrics.DegradedMaps++
	}
	remaining := len(fetches)
	for _, fe := range fetches {
		if fe.From != node {
			s.metrics.HDFSReadBytes += s.cfg.BlockBytes
		}
		s.net.Transfer(fe.From, node, s.cfg.BlockBytes, func() {
			remaining--
			if remaining == 0 {
				s.eng.After(compute, func() { s.mapDone(ti, node) })
			}
		})
	}
}

func (s *jobState) mapDone(ti, node int) {
	_ = ti
	s.freeMap[node]++
	s.mapsRemaining--
	if s.spec.Reduces == 0 {
		if s.mapsRemaining == 0 {
			s.endTime = s.eng.Now()
		}
	} else {
		out := s.cfg.BlockBytes * s.spec.MapOutputRatio
		piece := out / float64(s.spec.Reduces)
		for r := 0; r < s.spec.Reduces; r++ {
			r := r
			rnode := s.reduceNode[r]
			if rnode != node {
				s.metrics.ShuffleBytes += piece
			}
			s.net.Transfer(node, rnode, piece, func() {
				s.reduceArrived[r]++
				s.reduceBytes[r] += piece
				if s.reduceArrived[r] == s.spec.Maps {
					dur := s.reduceBytes[r] * s.slowdown[rnode] / (s.prm.ReduceMBps * cluster.MB)
					s.eng.After(dur, func() { s.reduceDone() })
				}
			})
		}
	}
	// Offer the freed slot immediately rather than waiting a heartbeat.
	if s.unassigned > 0 {
		s.eng.After(0, func() { s.heartbeat(node) })
	}
}

func (s *jobState) reduceDone() {
	s.reducesRemaining--
	if s.reducesRemaining == 0 && s.mapsRemaining == 0 {
		s.endTime = s.eng.Now()
	}
}
