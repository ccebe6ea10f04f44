// Package stats provides the small statistical toolkit the experiment
// harnesses share: streaming mean/variance (Welford), standard errors,
// and normal-approximation confidence intervals for the multi-trial
// averages reported in the figures.
package stats

import (
	"fmt"
	"math"
)

// Accumulator computes running mean and variance with Welford's
// algorithm; the zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean (0 with no observations).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// String renders "mean ± stderr (n)".
func (a *Accumulator) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", a.Mean(), a.StdErr(), a.n)
}

// Mean returns the mean of a sample.
func Mean(xs []float64) float64 {
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	return a.Mean()
}
