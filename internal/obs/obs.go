// Package obs is the store's observability substrate (standard library
// plus internal/durable for the snapshot file):
// sharded counters, float gauges, log-bucketed latency histograms with
// p50/p99/p999 quantiles, and a fixed-size structured event ring, all
// owned by a named Registry that exports JSON snapshots (mergeable
// across processes, so one-shot CLI invocations accumulate into a
// persisted file) and an expvar-compatible HTTP handler for live
// scraping.
//
// Everything is safe for concurrent use and built for hot paths: a
// counter add or histogram observation is a handful of atomic
// operations with no locks and no allocation, so the data plane can
// stay instrumented permanently (the overhead gate in
// internal/hdfsraid holds it to a bound). Callers resolve metric
// handles once (Registry.Counter et al. get-or-create) and hold them,
// keeping name lookups off the per-operation path.
package obs

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"math"
)

// counterShards is the number of independent cells a Counter spreads
// its adds over (a power of two). More shards mean less cross-core
// cacheline bouncing under concurrent writers at the price of a longer
// sum on read; reads are rare (snapshots), writes are the hot path.
const counterShards = 16

// counterCell is one padded counter shard: the padding keeps adjacent
// shards on distinct cachelines so concurrent writers don't false-share.
type counterCell struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing sharded counter. Adds from
// concurrent goroutines land on (probably) different shards, so a hot
// read path incrementing one counter from every core does not serialize
// on a single cacheline. Value folds the shards; it is a point-in-time
// sum, exact once writers quiesce.
type Counter struct {
	shards [counterShards]counterCell
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	// A goroutine's stack address is a cheap, stable-enough shard key:
	// goroutines keep their stacks, so repeated adds from one goroutine
	// hit one shard, and different goroutines spread out. The shift
	// skips the low always-aligned bits.
	i := int(uintptr(unsafe.Pointer(&n))>>9) & (counterShards - 1)
	c.shards[i].v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the sum of all shards.
func (c *Counter) Value() int64 {
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// Gauge is a float64 level that can be set or adjusted concurrently:
// queue depths, token-bucket balances, pacing lag.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v as the gauge's current level.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the gauge's current level.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry is a named collection of metrics. Counter, Gauge, Histogram
// and Trace get-or-create by name, so independent subsystems sharing a
// registry converge on the same instrument; callers resolve handles
// once and use them lock-free afterwards. The zero Registry is not
// usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	traces   map[string]*Trace
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		traces:   map[string]*Trace{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Trace returns the named event ring, creating it with the given
// capacity on first use (an existing ring keeps its original capacity;
// capacity <= 0 uses DefaultTraceCap).
func (r *Registry) Trace(name string, capacity int) *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.traces[name]
	if t == nil {
		t = NewTrace(capacity)
		r.traces[name] = t
	}
	return t
}

// Snapshot captures every metric's current state as plain data, safe to
// marshal, merge and persist. Concurrent writers may land observations
// during the capture; each individual instrument's snapshot is
// internally consistent.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Snapshot()
		}
	}
	if len(r.traces) > 0 {
		s.Traces = make(map[string][]Event, len(r.traces))
		for name, t := range r.traces {
			s.Traces[name] = t.Events()
		}
	}
	return s
}
