package workload

import (
	"reflect"
	"testing"
)

func TestZipfTraceShape(t *testing.T) {
	cfg := TraceConfig{Files: 10, Accesses: 5000, ZipfS: 1.5, Rate: 10, Seed: 1}
	trace, err := ZipfTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != cfg.Accesses {
		t.Fatalf("trace length %d", len(trace))
	}
	counts := map[string]int{}
	last := 0.0
	for _, a := range trace {
		if a.Time <= last {
			t.Fatalf("times not increasing: %v after %v", a.Time, last)
		}
		last = a.Time
		counts[a.Name]++
	}
	// Zipf head dominates the tail.
	if counts[TraceFileName(0)] <= 5*counts[TraceFileName(9)] {
		t.Fatalf("no skew: head %d, tail %d", counts[TraceFileName(0)], counts[TraceFileName(9)])
	}
	// Poisson arrivals at rate 10 over 5000 accesses last ~500 s.
	if last < 250 || last > 1000 {
		t.Fatalf("trace spans %v s, want ~500", last)
	}
}

func TestZipfTraceDeterministic(t *testing.T) {
	cfg := TraceConfig{Files: 5, Accesses: 100, ZipfS: 2, Rate: 1, Seed: 42}
	a, err := ZipfTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ZipfTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different traces")
	}
	cfg.Seed = 43
	c, err := ZipfTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, identical traces")
	}
}

// TestZipfTraceBlockSkew: offset-bearing traces concentrate accesses
// on each file's head blocks, and omitting the block config leaves
// every access without an offset (Block -1).
func TestZipfTraceBlockSkew(t *testing.T) {
	trace, err := ZipfTrace(TraceConfig{
		Files: 10, Accesses: 5000, ZipfS: 1.3, Rate: 10, Seed: 9,
		BlocksPerFile: 20, BlockZipfS: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	headHits, tailHits := 0, 0
	for _, a := range trace {
		if a.Block < 0 || a.Block >= 20 {
			t.Fatalf("block %d out of range", a.Block)
		}
		if a.Block < 5 {
			headHits++
		} else {
			tailHits++
		}
	}
	if tailHits == 0 {
		t.Fatal("no tail blocks ever accessed (skew too extreme to be a Zipf)")
	}
	if headHits <= 3*tailHits {
		t.Fatalf("head hits %d vs tail %d: intra-file skew missing", headHits, tailHits)
	}

	flat, err := ZipfTrace(TraceConfig{Files: 10, Accesses: 100, ZipfS: 1.3, Rate: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range flat {
		if a.Block != -1 {
			t.Fatalf("offset-less trace should carry the -1 sentinel, got block %d", a.Block)
		}
	}
}

func TestZipfTraceValidation(t *testing.T) {
	good := TraceConfig{Files: 2, Accesses: 1, ZipfS: 1.1, Rate: 1}
	for _, mutate := range []func(*TraceConfig){
		func(c *TraceConfig) { c.Files = 0 },
		func(c *TraceConfig) { c.Accesses = 0 },
		func(c *TraceConfig) { c.ZipfS = 1 },
		func(c *TraceConfig) { c.Rate = 0 },
		func(c *TraceConfig) { c.BlockZipfS = 1.5; c.BlocksPerFile = 0 },
		func(c *TraceConfig) { c.BlockZipfS = 0.5; c.BlocksPerFile = 10 },
	} {
		cfg := good
		mutate(&cfg)
		if _, err := ZipfTrace(cfg); err == nil {
			t.Fatalf("accepted bad config %+v", cfg)
		}
	}
	if _, err := ZipfTrace(good); err != nil {
		t.Fatal(err)
	}
}
