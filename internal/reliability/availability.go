package reliability

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
)

// AvailabilityResult quantifies the paper's first motivation for
// inherent replication (Section 1): transient failures are the norm, a
// stripe is unavailable whenever the current failure pattern is
// undecodable. With nodes independently up with probability
// a = MTTF/(MTTF+MTTR), the stripe unavailability is
//
//	U = sum over undecodable patterns P of a^(n-|P|) (1-a)^|P|.
//
// For codes with n <= MaxExactNodes the sum is exact (2^n pattern
// enumeration against the real decoder); longer codes are sampled.
type AvailabilityResult struct {
	Code           string
	NodeUp         float64
	Unavailability float64
	Exact          bool
}

// MaxExactNodes caps exact pattern enumeration (2^n decoder calls). At
// 20 the (10,9) RAID+m code enumerates in about half a second; sampling
// it would miss its ~4.5e-7 unavailability at any practical count.
const MaxExactNodes = 20

// StripeUnavailability computes the probability that a stripe of the
// code is momentarily undecodable, exactly for short codes and by
// Monte-Carlo (with the given sample count) for long ones.
func StripeUnavailability(c core.Code, p Params, samples int, rng *rand.Rand) (AvailabilityResult, error) {
	up := p.NodeMTTFHours / (p.NodeMTTFHours + p.NodeRepairHours)
	if up <= 0 || up >= 1 {
		return AvailabilityResult{}, fmt.Errorf("reliability: degenerate node availability %v", up)
	}
	// 1-byte decodability oracle.
	data := make([][]byte, c.DataSymbols())
	for i := range data {
		data[i] = []byte{byte(i + 1)}
	}
	symbols, err := c.Encode(data)
	if err != nil {
		return AvailabilityResult{}, err
	}
	placement := c.Placement()
	n := c.Nodes()

	res := AvailabilityResult{Code: c.Name(), NodeUp: up}
	if n <= MaxExactNodes {
		res.Exact = true
		down := make([]bool, n)
		for mask := 0; mask < 1<<n; mask++ {
			bits := 0
			for v := 0; v < n; v++ {
				down[v] = mask&(1<<v) != 0
				if down[v] {
					bits++
				}
			}
			if bits <= c.FaultTolerance() {
				continue // always decodable by definition
			}
			if !patternDecodable(c, symbols, placement, down) {
				res.Unavailability += math.Pow(1-up, float64(bits)) * math.Pow(up, float64(n-bits))
			}
		}
		return res, nil
	}
	if samples <= 0 {
		return AvailabilityResult{}, fmt.Errorf("reliability: code %s needs sampling; samples must be positive", c.Name())
	}
	bad := 0
	down := make([]bool, n)
	for s := 0; s < samples; s++ {
		for v := range down {
			down[v] = rng.Float64() > up
		}
		if !patternDecodable(c, symbols, placement, down) {
			bad++
		}
	}
	res.Unavailability = float64(bad) / float64(samples)
	return res, nil
}

func patternDecodable(c core.Code, symbols [][]byte, p core.Placement, down []bool) bool {
	avail := make([][]byte, c.Symbols())
	for sym := range avail {
		for _, v := range p.SymbolNodes[sym] {
			if !down[v] {
				avail[sym] = symbols[sym]
				break
			}
		}
	}
	_, err := c.Decode(avail)
	return err == nil
}

// AnnualRepairTraffic estimates the yearly network bytes spent
// repairing permanent single-node failures, per stored data block —
// the Section 1 argument that repair traffic matters. Each node fails
// lambda*HoursPerYear times a year; a failure of a node touching a
// stripe costs that stripe the code's single-node repair bandwidth.
// Normalized per data block:
//
//	bytesPerBlockYear = rate * n/k * repairBW(1 node) / n * blockBytes
//
// i.e. a stripe sees n node-failures' worth of exposure, each costing
// repairBW/n per node, spread over its k data blocks.
func AnnualRepairTraffic(c core.Code, p Params, blockBytes float64) (float64, error) {
	// Average single-node repair bandwidth over all nodes (codes like
	// heptagon-local are not node-symmetric: the global node repairs
	// differently).
	total := 0
	for v := 0; v < c.Nodes(); v++ {
		plan, err := c.PlanRepair([]int{v})
		if err != nil {
			return 0, err
		}
		total += plan.Bandwidth()
	}
	avgBW := float64(total) / float64(c.Nodes())
	failuresPerNodeYear := HoursPerYear / p.NodeMTTFHours
	// Each stripe spans n nodes, so it experiences n*rate failures a
	// year, each costing avgBW blocks; divide by k data blocks.
	perBlock := failuresPerNodeYear * float64(c.Nodes()) * avgBW / float64(c.DataSymbols())
	return perBlock * blockBytes, nil
}
