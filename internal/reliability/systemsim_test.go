package reliability

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
)

// SystemConfig describes a whole-cluster reliability simulation: G
// stripes of one code scattered over an N-node cluster whose nodes
// fail and repair independently. Unlike the per-group Markov chains,
// stripes here overlap on nodes, so failures are correlated across
// groups — this is the cross-check for the independent-group
// approximation Table 1 relies on.
type SystemConfig struct {
	Nodes   int
	Code    core.Code
	Stripes int
	Params  Params
	// MaxHours caps each trial; a trial that survives the cap
	// contributes the cap (biasing the estimate low, reported by the
	// Censored count).
	MaxHours float64
}

// SystemResult is the outcome of a whole-cluster simulation.
type SystemResult struct {
	MeanHours float64
	Stderr    float64
	Trials    int
	Censored  int // trials that hit MaxHours without data loss
}

// SimulateSystemMTTDL estimates the cluster's mean time to first
// unrecoverable stripe by direct event simulation. Decodability is
// checked exactly by running the code's decoder on 1-byte symbols for
// the stripe's current erasure pattern.
func SimulateSystemMTTDL(cfg SystemConfig, trials int, rng *rand.Rand) (SystemResult, error) {
	if trials <= 0 {
		return SystemResult{}, fmt.Errorf("reliability: trials must be positive")
	}
	if cfg.Stripes <= 0 || cfg.Nodes < cfg.Code.Nodes() {
		return SystemResult{}, fmt.Errorf("reliability: invalid system config")
	}
	if cfg.MaxHours <= 0 {
		cfg.MaxHours = math.Inf(1)
	}
	// Pre-encode once with 1-byte blocks for the decodability oracle.
	data := make([][]byte, cfg.Code.DataSymbols())
	for i := range data {
		data[i] = []byte{byte(i + 1)}
	}
	symbols, err := cfg.Code.Encode(data)
	if err != nil {
		return SystemResult{}, err
	}
	placement := cfg.Code.Placement()

	var res SystemResult
	var acc Accumulator
	for trial := 0; trial < trials; trial++ {
		// Scatter stripes over random node subsets.
		stripeNodes := make([][]int, cfg.Stripes)
		nodeStripes := make([][]int, cfg.Nodes)
		for s := range stripeNodes {
			stripeNodes[s] = rng.Perm(cfg.Nodes)[:cfg.Code.Nodes()]
			for _, v := range stripeNodes[s] {
				nodeStripes[v] = append(nodeStripes[v], s)
			}
		}
		t, censored := runSystemTrial(cfg, symbols, placement, stripeNodes, nodeStripes, rng)
		if censored {
			res.Censored++
		}
		acc.Add(t)
	}
	res.Trials = trials
	res.MeanHours = acc.Mean()
	res.Stderr = acc.StdErr()
	return res, nil
}

type sysEvent struct {
	t      float64
	node   int
	isFail bool
}

type sysHeap []sysEvent

func (h sysHeap) Len() int            { return len(h) }
func (h sysHeap) Less(i, j int) bool  { return h[i].t < h[j].t }
func (h sysHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *sysHeap) Push(x interface{}) { *h = append(*h, x.(sysEvent)) }
func (h *sysHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

func runSystemTrial(cfg SystemConfig, symbols [][]byte, placement core.Placement,
	stripeNodes [][]int, nodeStripes [][]int, rng *rand.Rand) (float64, bool) {

	lambda, mu := cfg.Params.lambda(), cfg.Params.mu()
	down := make([]bool, cfg.Nodes)
	events := &sysHeap{}
	for v := 0; v < cfg.Nodes; v++ {
		heap.Push(events, sysEvent{t: rng.ExpFloat64() / lambda, node: v, isFail: true})
	}
	for events.Len() > 0 {
		ev := heap.Pop(events).(sysEvent)
		if ev.t > cfg.MaxHours {
			return cfg.MaxHours, true
		}
		if ev.isFail {
			down[ev.node] = true
			// Check every stripe touching this node.
			for _, s := range nodeStripes[ev.node] {
				if !stripeDecodable(cfg.Code, symbols, placement, stripeNodes[s], down) {
					return ev.t, false
				}
			}
			heap.Push(events, sysEvent{t: ev.t + rng.ExpFloat64()/mu, node: ev.node, isFail: false})
		} else {
			down[ev.node] = false
			heap.Push(events, sysEvent{t: ev.t + rng.ExpFloat64()/lambda, node: ev.node, isFail: true})
		}
	}
	return cfg.MaxHours, true
}

// stripeDecodable checks the stripe's current erasure pattern with the
// real decoder on 1-byte symbols.
func stripeDecodable(c core.Code, symbols [][]byte, p core.Placement, chosen []int, down []bool) bool {
	avail := make([][]byte, c.Symbols())
	for sym := range avail {
		for _, local := range p.SymbolNodes[sym] {
			if !down[chosen[local]] {
				avail[sym] = symbols[sym]
				break
			}
		}
	}
	_, err := c.Decode(avail)
	return err == nil
}
