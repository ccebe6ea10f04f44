package reliability

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

func mustCode(t *testing.T, name string) core.Code {
	t.Helper()
	c, err := core.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSystemSimValidation(t *testing.T) {
	c := mustCode(t, "pentagon")
	p := Params{NodeMTTFHours: 100, NodeRepairHours: 10}
	if _, err := SimulateSystemMTTDL(SystemConfig{Nodes: 25, Code: c, Stripes: 5, Params: p}, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("accepted zero trials")
	}
	if _, err := SimulateSystemMTTDL(SystemConfig{Nodes: 3, Code: c, Stripes: 5, Params: p}, 1, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("accepted cluster smaller than code")
	}
	if _, err := SimulateSystemMTTDL(SystemConfig{Nodes: 25, Code: c, Stripes: 0, Params: p}, 1, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("accepted zero stripes")
	}
}

// TestSystemSimSingleStripeMatchesChain: with exactly one stripe, the
// system simulation must agree with the per-group Markov chain.
func TestSystemSimSingleStripeMatchesChain(t *testing.T) {
	p := Params{NodeMTTFHours: 40, NodeRepairHours: 20}
	c := mustCode(t, "pentagon")
	analytic, err := PolygonChain(5, p).MTTDL(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateSystemMTTDL(SystemConfig{
		Nodes: 5, Code: c, Stripes: 1, Params: p,
	}, 3000, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Censored > 0 {
		t.Fatalf("unexpected censoring: %+v", res)
	}
	if diff := math.Abs(res.MeanHours - analytic); diff > 6*res.Stderr+0.05*analytic {
		t.Fatalf("system sim %v ± %v vs chain %v", res.MeanHours, res.Stderr, analytic)
	}
}

// TestSystemSimMoreStripesDieSooner: the whole-cluster MTTDL shrinks
// as more stripes share the nodes.
func TestSystemSimMoreStripesDieSooner(t *testing.T) {
	p := Params{NodeMTTFHours: 40, NodeRepairHours: 20}
	c := mustCode(t, "pentagon")
	rng := rand.New(rand.NewSource(3))
	few, err := SimulateSystemMTTDL(SystemConfig{Nodes: 25, Code: c, Stripes: 2, Params: p}, 800, rng)
	if err != nil {
		t.Fatal(err)
	}
	many, err := SimulateSystemMTTDL(SystemConfig{Nodes: 25, Code: c, Stripes: 30, Params: p}, 800, rng)
	if err != nil {
		t.Fatal(err)
	}
	if many.MeanHours >= few.MeanHours {
		t.Fatalf("30 stripes (%v h) outlived 2 stripes (%v h)", many.MeanHours, few.MeanHours)
	}
}

// TestSystemSimNearIndependentGroupApprox: at accelerated rates the
// independent-group approximation (group MTTDL / G) should predict the
// overlapping-stripe simulation within a modest factor.
func TestSystemSimNearIndependentGroupApprox(t *testing.T) {
	p := Params{NodeMTTFHours: 60, NodeRepairHours: 10}
	c := mustCode(t, "pentagon")
	groupMTTDL, err := PolygonChain(5, p).MTTDL(0)
	if err != nil {
		t.Fatal(err)
	}
	const stripes = 10
	approx := groupMTTDL / stripes
	res, err := SimulateSystemMTTDL(SystemConfig{
		Nodes: 25, Code: c, Stripes: stripes, Params: p,
	}, 1500, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.MeanHours / approx
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("system sim %v vs independent-group approx %v (ratio %.2f)", res.MeanHours, approx, ratio)
	}
}

// TestSystemSimHeptagonLocalSurvivesLonger: at equal stripes and
// rates, the FT-3 heptagon-local system outlives the FT-2 pentagon
// system. The repair:MTTF ratio must be reasonably small for the
// tolerance advantage to beat the 15-node exposure (it flips when a
// third of the cluster is down at once, which is far outside any
// regime Table 1 speaks to).
func TestSystemSimHeptagonLocalSurvivesLonger(t *testing.T) {
	p := Params{NodeMTTFHours: 40, NodeRepairHours: 1}
	rng := rand.New(rand.NewSource(5))
	pent, err := SimulateSystemMTTDL(SystemConfig{
		Nodes: 25, Code: mustCode(t, "pentagon"), Stripes: 5, Params: p,
	}, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	hl, err := SimulateSystemMTTDL(SystemConfig{
		Nodes: 25, Code: mustCode(t, "heptagon-local"), Stripes: 5, Params: p,
	}, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	if hl.MeanHours <= pent.MeanHours {
		t.Fatalf("heptagon-local (%v h) did not outlive pentagon (%v h)", hl.MeanHours, pent.MeanHours)
	}
}

func TestSystemSimCensoring(t *testing.T) {
	// With a tiny cap every trial is censored and the mean equals the
	// cap.
	p := Params{NodeMTTFHours: 1e9, NodeRepairHours: 1}
	res, err := SimulateSystemMTTDL(SystemConfig{
		Nodes: 25, Code: mustCode(t, "pentagon"), Stripes: 2, Params: p, MaxHours: 1,
	}, 50, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Censored != 50 || res.MeanHours != 1 {
		t.Fatalf("censoring broken: %+v", res)
	}
}

// BenchmarkSystemMTTDL runs the whole-cluster overlapping-stripe
// Monte-Carlo at accelerated rates.
func BenchmarkSystemMTTDL(b *testing.B) {
	c, err := core.New("pentagon")
	if err != nil {
		b.Fatal(err)
	}
	cfg := SystemConfig{
		Nodes: 25, Code: c, Stripes: 10,
		Params: Params{NodeMTTFHours: 60, NodeRepairHours: 10},
	}
	var mean float64
	for i := 0; i < b.N; i++ {
		res, err := SimulateSystemMTTDL(cfg, 200, rand.New(rand.NewSource(int64(i+1))))
		if err != nil {
			b.Fatal(err)
		}
		mean = res.MeanHours
	}
	b.ReportMetric(mean, "mean-hours")
}
