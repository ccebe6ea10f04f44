package workload

import (
	"fmt"
	"math/rand"
)

// Access is one read in a file-access trace: data block Block of file
// Name touched at virtual time Time (seconds). Block is -1 when the
// trace carries no offset information (the access is "somewhere in
// the file"); offset-bearing traces (see TraceConfig.BlockZipfS)
// record which block the read hit, so extent-granular tiering can see
// that skew lives *inside* files, not just across them.
type Access struct {
	Name  string
	Block int
	Time  float64
}

// TraceConfig describes a synthetic skewed access trace. Hot/cold
// tiering experiments replay these against the store or cluster
// simulators: a Zipf-skewed trace concentrates most reads on a few hot
// files, the regime where double-replication codes beat RS. With
// BlockZipfS set, each access also draws its block offset from a
// second Zipf, concentrating reads on each file's head — the
// intra-file skew regime where extent tiering beats whole-file
// tiering.
type TraceConfig struct {
	Files    int     // number of distinct files, named file-000...
	Accesses int     // trace length
	ZipfS    float64 // Zipf exponent, > 1; larger is more skewed
	Rate     float64 // mean accesses per second (Poisson arrivals)
	Seed     int64
	// BlocksPerFile and BlockZipfS shape intra-file skew: each access
	// draws a block in [0, BlocksPerFile) from a Zipf with exponent
	// BlockZipfS (> 1), so block 0 is each file's hottest. Both zero
	// leaves every access without offset information (Block -1).
	BlocksPerFile int
	BlockZipfS    float64
}

// Validate checks the config.
func (c TraceConfig) Validate() error {
	if c.Files <= 0 {
		return fmt.Errorf("workload: trace needs files, got %d", c.Files)
	}
	if c.Accesses <= 0 {
		return fmt.Errorf("workload: trace needs accesses, got %d", c.Accesses)
	}
	if c.ZipfS <= 1 {
		return fmt.Errorf("workload: zipf exponent must exceed 1, got %v", c.ZipfS)
	}
	if c.Rate <= 0 {
		return fmt.Errorf("workload: rate must be positive, got %v", c.Rate)
	}
	if c.BlockZipfS != 0 {
		if c.BlockZipfS <= 1 {
			return fmt.Errorf("workload: block zipf exponent must exceed 1, got %v", c.BlockZipfS)
		}
		if c.BlocksPerFile <= 1 {
			return fmt.Errorf("workload: block zipf needs blocks per file, got %d", c.BlocksPerFile)
		}
	}
	return nil
}

// TraceFileName returns the canonical name of trace file i.
func TraceFileName(i int) string { return fmt.Sprintf("file-%03d", i) }

// ZipfTrace generates a deterministic Zipf-skewed access trace with
// Poisson arrivals: file 0 is the hottest, file Files-1 the coldest.
// With BlockZipfS configured, each access also carries a Zipf-drawn
// block offset (block 0 hottest), modeling intra-file skew. Configs
// without intra-file skew draw exactly the random sequence earlier
// versions did, so existing seeds replay identically.
func ZipfTrace(cfg TraceConfig) ([]Access, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Files-1))
	if zipf == nil {
		return nil, fmt.Errorf("workload: bad zipf parameters s=%v files=%d", cfg.ZipfS, cfg.Files)
	}
	var blockZipf *rand.Zipf
	if cfg.BlockZipfS > 1 {
		blockZipf = rand.NewZipf(rng, cfg.BlockZipfS, 1, uint64(cfg.BlocksPerFile-1))
		if blockZipf == nil {
			return nil, fmt.Errorf("workload: bad block zipf parameters s=%v blocks=%d", cfg.BlockZipfS, cfg.BlocksPerFile)
		}
	}
	trace := make([]Access, cfg.Accesses)
	now := 0.0
	for i := range trace {
		now += rng.ExpFloat64() / cfg.Rate
		trace[i] = Access{Name: TraceFileName(int(zipf.Uint64())), Block: -1, Time: now}
		if blockZipf != nil {
			trace[i].Block = int(blockZipf.Uint64())
		}
	}
	return trace, nil
}
