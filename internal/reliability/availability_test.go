package reliability

import (
	"math"
	"math/rand"
	"testing"
)

func availParams() Params {
	// 1% node downtime: MTTF 99 h, MTTR 1 h.
	return Params{NodeMTTFHours: 99, NodeRepairHours: 1}
}

func TestUnavailability2RepClosedForm(t *testing.T) {
	c := mustCode(t, "2-rep")
	res, err := StripeUnavailability(c, availParams(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("2-rep should be exact")
	}
	// Both replicas down: (1-a)^2 with a = 0.99.
	want := 0.01 * 0.01
	if math.Abs(res.Unavailability-want) > 1e-12 {
		t.Fatalf("2-rep unavailability = %g, want %g", res.Unavailability, want)
	}
}

func TestUnavailability3RepClosedForm(t *testing.T) {
	res, err := StripeUnavailability(mustCode(t, "3-rep"), availParams(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(0.01, 3)
	if math.Abs(res.Unavailability-want) > 1e-12 {
		t.Fatalf("3-rep unavailability = %g, want %g", res.Unavailability, want)
	}
}

func TestUnavailabilityPentagonClosedForm(t *testing.T) {
	// The pentagon is unavailable iff >= 3 of its 5 nodes are down
	// (any 2-node pattern decodes, no 3-node pattern does).
	res, err := StripeUnavailability(mustCode(t, "pentagon"), availParams(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, q := 0.99, 0.01
	want := 0.0
	for k := 3; k <= 5; k++ {
		want += float64(choose(5, k)) * math.Pow(q, float64(k)) * math.Pow(a, float64(5-k))
	}
	if math.Abs(res.Unavailability-want)/want > 1e-9 {
		t.Fatalf("pentagon unavailability = %g, want %g", res.Unavailability, want)
	}
}

func choose(n, k int) int {
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

// TestUnavailabilityOrdering: the paper's availability argument — the
// double-replication codes sit between 2-rep and 3-rep territory, and
// all beat single-copy RS by orders of magnitude.
func TestUnavailabilityOrdering(t *testing.T) {
	p := availParams()
	rng := rand.New(rand.NewSource(1))
	u := map[string]float64{}
	for _, name := range []string{"2-rep", "3-rep", "pentagon", "heptagon", "heptagon-local", "rs-14-10"} {
		res, err := StripeUnavailability(mustCode(t, name), p, 200000, rng)
		if err != nil {
			t.Fatal(err)
		}
		u[name] = res.Unavailability
	}
	if !(u["3-rep"] < u["2-rep"]) {
		t.Errorf("3-rep (%g) should beat 2-rep (%g)", u["3-rep"], u["2-rep"])
	}
	if !(u["heptagon-local"] < u["pentagon"]) {
		t.Errorf("heptagon-local (%g) should beat pentagon (%g)", u["heptagon-local"], u["pentagon"])
	}
	// Per data block RS is far less available than any replicated
	// scheme: a (14,10) stripe dies with any 5 concurrent outages among
	// 14 nodes; pentagon needs 3 among 5. Both are small, but the real
	// contrast is against 2-rep on a per-block basis.
	if u["pentagon"] > 100*u["2-rep"] {
		t.Errorf("pentagon unavailability %g implausibly above 2-rep %g", u["pentagon"], u["2-rep"])
	}
}

func TestUnavailabilityHeptagonLocalExact(t *testing.T) {
	// 15 nodes: still exact (32768 patterns against the real decoder).
	res, err := StripeUnavailability(mustCode(t, "heptagon-local"), availParams(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("15-node code should enumerate exactly")
	}
	// Must be at most the probability of >= 4 failures among 15 (FT=3)
	// and at least the probability of one specific 4-loss pattern.
	if res.Unavailability <= 0 || res.Unavailability > 1e-4 {
		t.Fatalf("heptagon-local unavailability = %g out of plausible range", res.Unavailability)
	}
}

// raidmUnavailability is the (m+1, m) RAID+m closed form: each of the
// m+1 symbols is lost when both its mirrors are down (q = (1-a)^2), and
// the XOR parity recovers at most one lost symbol.
func raidmUnavailability(m int, a float64) float64 {
	q := (1 - a) * (1 - a)
	return 1 - math.Pow(1-q, float64(m+1)) - float64(m+1)*q*math.Pow(1-q, float64(m))
}

// TestUnavailabilityRAIDMExact: the 20-node (10,9) RAID+m enumerates
// exactly and matches its closed form; sampling missed its ~4.5e-7.
func TestUnavailabilityRAIDMExact(t *testing.T) {
	res, err := StripeUnavailability(mustCode(t, "raid+m-10-9"), availParams(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("20-node code should enumerate exactly")
	}
	if want := raidmUnavailability(9, 0.99); math.Abs(res.Unavailability-want) > 1e-12 {
		t.Fatalf("raid+m-10-9 unavailability = %g, want %g", res.Unavailability, want)
	}
}

func TestUnavailabilityMonteCarloAgreesWithExact(t *testing.T) {
	// Sample the 24-node (12,11) RAID+m at 10% downtime, so samples
	// actually hit bad patterns, and compare to its closed form.
	p := Params{NodeMTTFHours: 9, NodeRepairHours: 1}
	const samples = 300000
	sampled, err := StripeUnavailability(mustCode(t, "raid+m-12-11"), p, samples, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Exact {
		t.Fatal("24-node code should sample")
	}
	want := raidmUnavailability(11, 0.9)
	if stderr := math.Sqrt(want / samples); math.Abs(sampled.Unavailability-want) > 5*stderr {
		t.Fatalf("sampled unavailability %g, closed form %g (5 stderr = %g)", sampled.Unavailability, want, 5*stderr)
	}
}

func TestUnavailabilityValidation(t *testing.T) {
	if _, err := StripeUnavailability(mustCode(t, "raid+m-12-11"), availParams(), 0, nil); err == nil {
		t.Fatal("long code accepted zero samples")
	}
	bad := Params{NodeMTTFHours: 0, NodeRepairHours: 1}
	if _, err := StripeUnavailability(mustCode(t, "2-rep"), bad, 0, nil); err == nil {
		t.Fatal("accepted degenerate availability")
	}
}

// TestAnnualRepairTraffic pins the Section 1 repair-traffic argument:
// per stored data block and year, RS pays ~k-times more repair bytes
// than the repair-by-transfer codes.
func TestAnnualRepairTraffic(t *testing.T) {
	p := DefaultParams()
	const blockBytes = 128.0 * 1024 * 1024
	traffic := map[string]float64{}
	for _, name := range []string{"3-rep", "pentagon", "heptagon", "heptagon-local", "rs-14-10", "raid+m-10-9"} {
		v, err := AnnualRepairTraffic(mustCode(t, name), p, blockBytes)
		if err != nil {
			t.Fatal(err)
		}
		if v <= 0 {
			t.Fatalf("%s: non-positive repair traffic", name)
		}
		traffic[name] = v
	}
	// RS repairs cost ~k blocks per failed block; the pentagon's
	// repair-by-transfer costs 1 per block. Normalized per stored data
	// block the gap must be large.
	if traffic["rs-14-10"] < 3*traffic["pentagon"] {
		t.Errorf("RS annual repair traffic %g not clearly above pentagon %g",
			traffic["rs-14-10"], traffic["pentagon"])
	}
}
