// Package tune calibrates per-code, per-device parallelism for a
// store. Instead of handing every pipeline GOMAXPROCS workers — the
// blanket guess the encode, decode, repair and transcode paths used
// before — a short probe measures how each registered code's encode
// and decode throughput actually scales with worker count on this
// machine (Keigo's observation: concurrency must be provisioned per
// storage level, not globally), plus the device's sequential write
// rate, and persists the result as tune.json beside the store
// manifest. Stores load it at open and size their worker pools from
// it; `hdfscli tune` runs the probe on demand.
package tune

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/gf256"
)

// FileName is the calibration file inside a store directory.
const FileName = "tune.json"

// CodeTune is the calibrated parallelism of one coding scheme.
type CodeTune struct {
	// EncodeWorkers is the smallest worker count within a few percent
	// of this machine's peak encode throughput for the code — more
	// workers past that point only steal CPU from concurrent requests.
	EncodeWorkers int `json:"encode_workers"`
	// DecodeWorkers sizes parallel degraded-read reconstruction.
	DecodeWorkers int     `json:"decode_workers"`
	EncodeMBps    float64 `json:"encode_mb_per_s,omitempty"`
	DecodeMBps    float64 `json:"decode_mb_per_s,omitempty"`
}

// Params is a store's persisted calibration.
type Params struct {
	// Kernel is the gf256 kernel tier the probe ran under ("gfni",
	// "avx2", "neon", "generic"). A mismatch with the running process
	// marks the calibration stale (see Stale).
	Kernel   string `json:"kernel"`
	MaxProcs int    `json:"max_procs"`
	ProbedAt string `json:"probed_at,omitempty"`
	// DeviceWriteMBps is the store directory's measured sequential
	// fsync'd write rate.
	DeviceWriteMBps float64 `json:"device_write_mb_per_s,omitempty"`
	// MoveWorkers sizes the tier manager's parallel move/repair
	// fan-out: enough concurrent moves to fill the machine given each
	// move's own encode workers.
	MoveWorkers int                 `json:"move_workers,omitempty"`
	Codes       map[string]CodeTune `json:"codes"`
}

// Stale reports whether the calibration was probed under a different
// gf256 kernel tier or a larger GOMAXPROCS than the running process —
// e.g. tune.json copied to a different machine class. Stale params
// should be ignored in favor of defaults.
func (p *Params) Stale() bool {
	if p == nil {
		return true
	}
	return p.Kernel != gf256.KernelName() || p.MaxProcs > runtime.GOMAXPROCS(0)
}

// EncodeWorkers returns the calibrated encode worker count for code,
// or 0 when uncalibrated (caller falls back to its default). Nil-safe.
func (p *Params) EncodeWorkers(code string) int {
	if p == nil {
		return 0
	}
	return p.Codes[code].EncodeWorkers
}

// DecodeWorkers returns the calibrated decode worker count for code,
// or 0 when uncalibrated. Nil-safe.
func (p *Params) DecodeWorkers(code string) int {
	if p == nil {
		return 0
	}
	return p.Codes[code].DecodeWorkers
}

// Save writes p to path atomically and durably (durable.WriteFile).
func (p *Params) Save(path string) error {
	raw, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return durable.WriteFile(path, append(raw, '\n'))
}

// Load reads a calibration file. A missing file returns (nil, nil):
// the store runs on defaults until someone probes.
func Load(path string) (*Params, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var p Params
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("tune: parsing %s: %w", path, err)
	}
	return &p, nil
}

// Options controls the probe's cost. Zero values take defaults sized
// for a sub-second-per-code calibration.
type Options struct {
	BlockSize  int // symbol size; default 64 KiB
	ProbeMB    int // data megabytes per measurement; default 8
	Rounds     int // best-of repetitions; default 3
	MaxWorkers int // candidate ceiling; default GOMAXPROCS
	// DeviceDir, when non-empty, also measures fsync'd sequential
	// write throughput with a temporary file in that directory.
	DeviceDir string
}

func (o Options) withDefaults() Options {
	if o.BlockSize <= 0 {
		o.BlockSize = 64 << 10
	}
	if o.ProbeMB <= 0 {
		o.ProbeMB = 8
	}
	if o.Rounds <= 0 {
		o.Rounds = 3
	}
	if o.MaxWorkers <= 0 {
		o.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	return o
}

// candidates returns the worker counts worth measuring: powers of two
// up to max, plus max itself.
func candidates(max int) []int {
	var out []int
	for w := 1; w < max; w *= 2 {
		out = append(out, w)
	}
	return append(out, max)
}

// Probe calibrates the named codes on this machine and returns the
// resulting Params (not yet saved). Unknown code names are skipped
// rather than failing: a store may carry files from codes compiled out
// of a future build.
func Probe(codeNames []string, opt Options) (*Params, error) {
	opt = opt.withDefaults()
	p := &Params{
		Kernel:   gf256.KernelName(),
		MaxProcs: runtime.GOMAXPROCS(0),
		ProbedAt: time.Now().UTC().Format(time.RFC3339),
		Codes:    map[string]CodeTune{},
	}
	maxEnc := 1
	for _, name := range codeNames {
		c, err := core.New(name)
		if err != nil {
			continue
		}
		ct, err := probeCode(c, opt)
		if err != nil {
			return nil, fmt.Errorf("tune: probing %s: %w", name, err)
		}
		p.Codes[name] = ct
		if ct.EncodeWorkers > maxEnc {
			maxEnc = ct.EncodeWorkers
		}
	}
	p.MoveWorkers = opt.MaxWorkers / maxEnc
	if p.MoveWorkers < 1 {
		p.MoveWorkers = 1
	}
	if p.MoveWorkers > 4 {
		p.MoveWorkers = 4
	}
	if opt.DeviceDir != "" {
		mbps, err := ProbeDevice(opt.DeviceDir, opt)
		if err != nil {
			return nil, err
		}
		p.DeviceWriteMBps = mbps
	}
	return p, nil
}

// probeCode measures one code's encode and decode scaling.
func probeCode(c core.Code, opt Options) (CodeTune, error) {
	st, err := core.NewStriper(c, opt.BlockSize)
	if err != nil {
		return CodeTune{}, err
	}
	stripeBytes := c.DataSymbols() * opt.BlockSize
	stripes := (opt.ProbeMB << 20) / stripeBytes
	if stripes < 2*opt.MaxWorkers {
		stripes = 2 * opt.MaxWorkers
	}
	data := make([]byte, stripes*stripeBytes)
	rand.New(rand.NewSource(1)).Read(data)
	pool := core.NewBlockPool(opt.BlockSize)

	var ct CodeTune
	ct.EncodeWorkers, ct.EncodeMBps, err = pickWorkers(opt, len(data), func(w int) error {
		return st.EncodeStream(data, w, pool, func(core.EncodedStripe) error { return nil })
	})
	if err != nil {
		return ct, err
	}

	// Decode probe: reconstruct stripes that each lost one data symbol
	// — the degraded-read inner loop — fanned across w workers the way
	// Store.Get fans stripes out.
	encoded, err := st.EncodeFile(data)
	if err != nil {
		return ct, err
	}
	avails := make([][][]byte, len(encoded))
	for i, es := range encoded {
		avail := make([][]byte, len(es.Symbols))
		copy(avail, es.Symbols)
		avail[0] = nil
		avails[i] = avail
	}
	ct.DecodeWorkers, ct.DecodeMBps, err = pickWorkers(opt, len(data), func(w int) error {
		errCh := make(chan error, w)
		for g := 0; g < w; g++ {
			go func(g int) {
				for i := g; i < len(avails); i += w {
					if _, err := c.Decode(avails[i]); err != nil {
						errCh <- err
						return
					}
				}
				errCh <- nil
			}(g)
		}
		for g := 0; g < w; g++ {
			if err := <-errCh; err != nil {
				return err
			}
		}
		return nil
	})
	return ct, err
}

// pickWorkers times run under each candidate worker count and returns
// the smallest count within 5% of peak throughput, with that peak in
// MB/s. Oversubscription is never faster in steady state, so ties
// break toward fewer workers left free for concurrent traffic.
func pickWorkers(opt Options, bytes int, run func(workers int) error) (int, float64, error) {
	best := 0.0
	rates := map[int]float64{}
	for _, w := range candidates(opt.MaxWorkers) {
		for r := 0; r < opt.Rounds; r++ {
			start := time.Now()
			if err := run(w); err != nil {
				return 0, 0, err
			}
			mbps := float64(bytes) / (1 << 20) / time.Since(start).Seconds()
			if mbps > rates[w] {
				rates[w] = mbps
			}
		}
		if rates[w] > best {
			best = rates[w]
		}
	}
	for _, w := range candidates(opt.MaxWorkers) {
		if rates[w] >= 0.95*best {
			return w, best, nil
		}
	}
	return opt.MaxWorkers, best, nil
}

// ProbeDevice measures dir's sequential write throughput: one file of
// ProbeMB megabytes written in block-size chunks and fsync'd, then
// removed.
func ProbeDevice(dir string, opt Options) (float64, error) {
	opt = opt.withDefaults()
	f, err := os.CreateTemp(dir, "tune-probe-*")
	if err != nil {
		return 0, err
	}
	path := f.Name()
	defer os.Remove(path)
	defer f.Close()
	chunk := make([]byte, opt.BlockSize)
	rand.New(rand.NewSource(2)).Read(chunk)
	total := opt.ProbeMB << 20
	start := time.Now()
	for written := 0; written < total; written += len(chunk) {
		if _, err := f.Write(chunk); err != nil {
			return 0, err
		}
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return float64(total) / (1 << 20) / time.Since(start).Seconds(), nil
}

// PathIn returns the tune.json path for a store directory.
func PathIn(storeDir string) string { return filepath.Join(storeDir, FileName) }
