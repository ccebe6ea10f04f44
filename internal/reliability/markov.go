// Package reliability computes mean time to data loss (MTTDL) for the
// paper's coding schemes, reproducing Table 1.
//
// Following the standard methodology of Xin et al. (MSST 2003), every
// code is modelled as a continuous-time Markov chain over the failure
// state of one redundancy group (a stripe's worth of nodes). Nodes fail
// independently at rate lambda = 1/MTTF and are repaired in parallel at
// rate mu = 1/MTTR each. Unrecoverable erasure patterns are absorbing
// "data loss" states. The group MTTDL is the expected absorption time
// from the all-healthy state; the system MTTDL divides by the number of
// independent groups needed to store the configured data volume.
//
// Unlike a plain birth-death chain on the failure count, the chains
// here track just enough pattern structure to be exact: RAID+m tracks
// how many mirror pairs are fully dead, and the heptagon-local code
// tracks the failure split across its two heptagons and the global
// node. This is what lets (12,11) RAID+m land below 3-rep while (10,9)
// RAID+m lands above it, as in the paper's Table 1.
package reliability

import (
	"fmt"
	"math"
)

// Chain is a continuous-time Markov chain with a designated start state
// and one or more absorbing states.
type Chain struct {
	names       []string
	index       map[string]int
	transitions []map[int]float64 // state -> successor -> rate
	absorbing   []bool
}

// NewChain returns an empty chain.
func NewChain() *Chain {
	return &Chain{index: make(map[string]int)}
}

// State interns a state by name and returns its index.
func (c *Chain) State(name string) int {
	if i, ok := c.index[name]; ok {
		return i
	}
	i := len(c.names)
	c.index[name] = i
	c.names = append(c.names, name)
	c.transitions = append(c.transitions, make(map[int]float64))
	c.absorbing = append(c.absorbing, false)
	return i
}

// SetAbsorbing marks a state as absorbing (data loss).
func (c *Chain) SetAbsorbing(s int) { c.absorbing[s] = true }

// AddRate adds a transition at the given rate; parallel transitions
// accumulate.
func (c *Chain) AddRate(from, to int, rate float64) {
	if rate < 0 {
		panic(fmt.Sprintf("reliability: negative rate %v", rate))
	}
	if rate == 0 || from == to {
		return
	}
	c.transitions[from][to] += rate
}

// Len returns the number of states.
func (c *Chain) Len() int { return len(c.names) }

// MTTDL returns the expected time to reach any absorbing state from
// state start, by solving the first-step linear system
//
//	t_s = 1/R_s + sum_{s'} (r_{s,s'}/R_s) t_{s'}
//
// with Gaussian elimination. It returns +Inf when no absorbing state is
// reachable from start.
func (c *Chain) MTTDL(start int) (float64, error) {
	n := c.Len()
	if start < 0 || start >= n {
		return 0, fmt.Errorf("reliability: invalid start state %d", start)
	}
	if c.absorbing[start] {
		return 0, nil
	}
	if !c.absorptionReachable(start) {
		return math.Inf(1), nil
	}
	// Transient states and their dense equation system
	// A t = b, where A = I - P (P restricted to transient states) and
	// b_s = 1/R_s.
	trans := make([]int, 0, n)
	pos := make([]int, n)
	for s := 0; s < n; s++ {
		pos[s] = -1
		if !c.absorbing[s] {
			pos[s] = len(trans)
			trans = append(trans, s)
		}
	}
	m := len(trans)
	a := make([][]float64, m)
	b := make([]float64, m)
	for i, s := range trans {
		a[i] = make([]float64, m)
		a[i][i] = 1
		total := 0.0
		for _, r := range c.transitions[s] {
			total += r
		}
		if total == 0 {
			// No way out: infinite expected time.
			return math.Inf(1), nil
		}
		b[i] = 1 / total
		for to, r := range c.transitions[s] {
			if pos[to] >= 0 {
				a[i][pos[to]] -= r / total
			}
		}
	}
	t, err := solveDense(a, b)
	if err != nil {
		return 0, err
	}
	v := t[pos[start]]
	if v < 0 || math.IsNaN(v) {
		return 0, fmt.Errorf("reliability: solver produced invalid MTTDL %v", v)
	}
	return v, nil
}

// absorptionReachable reports whether any absorbing state is reachable
// from start.
func (c *Chain) absorptionReachable(start int) bool {
	seen := make([]bool, c.Len())
	stack := []int{start}
	seen[start] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c.absorbing[s] {
			return true
		}
		for to := range c.transitions[s] {
			if !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		}
	}
	return false
}

// solveDense solves a x = b by Gaussian elimination with partial
// pivoting. a and b are modified.
func solveDense(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		pivot := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, pivot = v, r
			}
		}
		if best == 0 {
			return nil, fmt.Errorf("reliability: singular system at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		inv := 1 / a[col][col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for cc := col; cc < n; cc++ {
				a[r][cc] -= f * a[col][cc]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = b[i] / a[i][i]
	}
	return x, nil
}
