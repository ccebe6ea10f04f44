package reliability

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
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

func TestAccumulatorZeroValue(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 || a.Variance() != 0 || a.StdErr() != 0 {
		t.Fatal("zero accumulator not zero")
	}
}

func TestAccumulatorKnownSample(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.Mean() != 5 {
		t.Fatalf("mean = %v, want 5", a.Mean())
	}
	// Sample variance of this classic sample is 32/7.
	if math.Abs(a.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("variance = %v, want %v", a.Variance(), 32.0/7)
	}
	if a.N() != 8 {
		t.Fatalf("n = %d", a.N())
	}
}

func TestAccumulatorSinglePointVarianceZero(t *testing.T) {
	var a Accumulator
	a.Add(42)
	if a.Variance() != 0 || a.Mean() != 42 {
		t.Fatal("single point stats wrong")
	}
}

func TestAccumulatorWelfordMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()*10 + 5
		}
		var a Accumulator
		mean := 0.0
		for _, x := range xs {
			a.Add(x)
			mean += x
		}
		mean /= float64(n)
		varSum := 0.0
		for _, x := range xs {
			varSum += (x - mean) * (x - mean)
		}
		naiveVar := varSum / float64(n-1)
		return math.Abs(a.Mean()-mean) < 1e-9 && math.Abs(a.Variance()-naiveVar) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAccumulatorStdErr(t *testing.T) {
	var a Accumulator
	for x := 1.0; x <= 10; x++ {
		a.Add(x)
	}
	want := a.StdDev() / math.Sqrt(10)
	if math.Abs(a.StdErr()-want) > 1e-12 {
		t.Fatal("stderr wrong")
	}
}
