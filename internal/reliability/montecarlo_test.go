package reliability

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
)

// SimulateMTTDL estimates the chain's expected absorption time from
// state 0 by direct stochastic simulation: it samples exponential
// holding times and jump destinations for `trials` independent runs and
// returns the empirical mean and standard error. It cross-validates the
// analytic solver at accelerated failure rates (real MTTDL values are
// far too large to simulate directly).
func SimulateMTTDL(c *Chain, trials int, rng *rand.Rand) (mean, stderr float64, err error) {
	if trials <= 0 {
		return 0, 0, fmt.Errorf("reliability: trials must be positive")
	}
	var acc Accumulator
	for t := 0; t < trials; t++ {
		elapsed := 0.0
		s := 0
		for !c.absorbing[s] {
			trans := c.transitions[s]
			total := 0.0
			for _, r := range trans {
				total += r
			}
			if total == 0 {
				return 0, 0, fmt.Errorf("reliability: state %q has no way out", c.names[s])
			}
			elapsed += rng.ExpFloat64() / total
			// Pick the jump destination proportionally to rate, in a
			// deterministic iteration order for reproducibility.
			u := rng.Float64() * total
			next := -1
			acc := 0.0
			keys := slices.Sorted(maps.Keys(trans))
			for _, to := range keys {
				acc += trans[to]
				if u <= acc {
					next = to
					break
				}
			}
			if next < 0 { // floating point slack: take the last key
				next = keys[len(keys)-1]
			}
			s = next
		}
		acc.Add(elapsed)
	}
	return acc.Mean(), acc.StdErr(), nil
}
