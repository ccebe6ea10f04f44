// Package sim provides the discrete-event simulation substrate for the
// cluster and MapReduce models: an event engine with a virtual clock,
// and a store-and-forward network model with per-node NIC queues on a
// shared LAN, matching the paper's single-rack 10 Gbps test beds.
package sim

import (
	"container/heap"
	"fmt"
)

// Engine is a discrete-event simulator. Events fire in timestamp order;
// ties break in scheduling order, which keeps runs deterministic.
type Engine struct {
	now    float64
	seq    int64
	events eventHeap
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn to run at absolute time t (>= Now).
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < %v", t, e.now))
	}
	e.seq++
	heap.Push(&e.events, &event{t: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Run processes events until none remain and returns the final clock.
func (e *Engine) Run() float64 {
	for e.events.Len() > 0 {
		ev := heap.Pop(&e.events).(*event)
		e.now = ev.t
		ev.fn()
	}
	return e.now
}

type event struct {
	t   float64
	seq int64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
