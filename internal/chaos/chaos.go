// Package chaos drives a live store through a seeded, concurrent
// workload — puts, reads, extent transcodes, tier-daemon ticks, brief
// node outages — while the faultfs injector corrupts, tears, delays,
// and denies its block I/O, then checks the robustness invariant the
// whole fault-handling stack promises: once injection stops, one
// Recover plus one full scrub pass leaves every byte readable exactly
// as written, with nothing unrepairable and a clean fsck.
//
// Mid-run, operations are allowed to FAIL (an injected outage can make
// a put or a move impossible) but never to LIE: any Get that returns
// without error must return exactly the bytes put. The harness records
// such violations immediately rather than waiting for the end state.
//
// The workload is deterministic per seed up to goroutine interleaving,
// so the fault mix is reproducible in distribution; the invariant must
// hold for every interleaving, which is what running the harness under
// the race detector in CI is for.
package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/faultfs"
	"repro/internal/hdfsraid"
	"repro/internal/tier"

	_ "repro/internal/code/replication" // chaos tiers between 3-rep ...
	_ "repro/internal/code/rs"          // ... and rs-9-6
)

// Config parameterizes one chaos run. Zero fields take defaults; Seed
// alone fully determines the workload and fault draw.
type Config struct {
	// Seed drives both the workload generators and the fault injector.
	Seed int64
	// Workers is the number of concurrent workload goroutines.
	Workers int
	// Ops is the total operation budget shared by the workers.
	Ops int
	// SeedFiles is the number of files put (fault-free) before
	// injection starts, so reads always have something to chew on.
	SeedFiles int
	// BlockSize and ExtentBlocks shape the store; both default small so
	// a short run still crosses many stripe and extent boundaries.
	BlockSize    int
	ExtentBlocks int
	// Fault overrides the injector's probabilities; zero fields take
	// defaults chosen so a run injects plenty of every fault kind while
	// keeping the odds of a genuinely unrepairable stripe (more latent
	// errors than the code tolerates) negligible.
	Fault faultfs.Config
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Ops == 0 {
		c.Ops = 400
	}
	if c.SeedFiles == 0 {
		c.SeedFiles = 6
	}
	if c.BlockSize == 0 {
		c.BlockSize = 1024
	}
	if c.ExtentBlocks == 0 {
		c.ExtentBlocks = 12
	}
	f := &c.Fault
	f.Seed = c.Seed
	if f.ReadErr == 0 {
		f.ReadErr = 0.05
	}
	if f.CorruptWrite == 0 {
		f.CorruptWrite = 0.01
	}
	if f.TornWrite == 0 {
		f.TornWrite = 0.02
	}
	if f.LatencyProb == 0 {
		f.LatencyProb = 0.02
	}
	if f.Latency == 0 {
		f.Latency = 500 * time.Microsecond
	}
	return c
}

// Result reports what one chaos run did and found. Counters split
// attempts from failures; failures under injection are expected and
// only Violations (plus a non-nil error from Run) mean the store broke
// its contract.
type Result struct {
	Puts, PutErrs             int64
	Gets, GetErrs             int64
	Transcodes, TranscodeErrs int64
	Ticks, TickErrs           int64
	Recovers, Outages         int64
	Files                     int // files successfully stored
	Faults                    faultfs.Stats
	FinalRecover              hdfsraid.RecoverReport
	FinalScrub                hdfsraid.ScrubReport
	// Violations are contract breaches observed mid-run: a Get that
	// succeeded with wrong bytes. Run fails when any are present.
	Violations []string
}

// Run executes one chaos run in a fresh store under dir and verifies
// the end-state invariant. The returned error is nil only when the
// store survived: no mid-run violations, recovery and a full scrub
// pass clean with nothing unrepairable, fsck healthy, and every stored
// file readable byte-exact with injection off. The Result comes back
// even alongside an error, for diagnosis.
func Run(dir string, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	var res Result

	store, err := hdfsraid.CreateExt(dir, "rs-9-6", cfg.BlockSize, cfg.ExtentBlocks)
	if err != nil {
		return res, err
	}
	fs := faultfs.New(cfg.Fault)
	fs.SetEnabled(false) // seeding below runs fault-free
	store.SetBlockIO(fs)

	// ref holds the authoritative content of every successfully stored
	// file; names lists them for random picking. Failed puts leave no
	// entry (and their names are never reused).
	var refMu sync.Mutex
	ref := map[string][]byte{}
	var names []string

	seedRng := rand.New(rand.NewSource(cfg.Seed))
	extBytes := cfg.ExtentBlocks * cfg.BlockSize
	for i := 0; i < cfg.SeedFiles; i++ {
		name := fmt.Sprintf("seed-%02d", i)
		data := make([]byte, 1+seedRng.Intn(2*extBytes))
		seedRng.Read(data)
		if err := store.Put(name, data); err != nil {
			return res, fmt.Errorf("chaos: seeding %s: %w", name, err)
		}
		ref[name] = data
		names = append(names, name)
	}

	// The tier stack runs for real: gets feed heat, daemon ticks move
	// hot extents to 3-rep and cold ones back, and each tick trickles a
	// few frames of scrubbing — all of it under injection.
	mgr, err := tier.NewManager(tier.StoreTarget{Store: store}, tier.Policy{
		HotCode: "3-rep", ColdCode: "rs-9-6", PromoteAt: 3, DemoteAt: 0.5,
	}, tier.NewTracker(50))
	if err != nil {
		return res, err
	}
	daemon, err := tier.NewDaemon(mgr, tier.DaemonConfig{
		Interval: 1, ScrubPerScan: float64(4 * block.FrameSize(cfg.BlockSize)),
	})
	if err != nil {
		return res, err
	}
	daemon.Scrub = tier.StoreTarget{Store: store}

	var clock atomic.Int64 // virtual seconds for heat decay and ticks
	var putSeq atomic.Int64
	var violMu sync.Mutex
	violation := func(format string, args ...any) {
		violMu.Lock()
		if len(res.Violations) < 16 {
			res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
		}
		violMu.Unlock()
	}
	pick := func(r *rand.Rand) string {
		refMu.Lock()
		defer refMu.Unlock()
		return names[r.Intn(len(names))]
	}
	nodes := store.Code().Nodes()

	fs.SetEnabled(true)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		r := rand.New(rand.NewSource(cfg.Seed + 1 + int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := 0; op < cfg.Ops/cfg.Workers; op++ {
				now := float64(clock.Add(1))
				switch roll := r.Intn(100); {
				case roll < 50: // read and verify
					name := pick(r)
					mgr.OnRead(name, now)
					atomic.AddInt64(&res.Gets, 1)
					got, err := store.Get(name)
					if err != nil {
						atomic.AddInt64(&res.GetErrs, 1)
						break
					}
					refMu.Lock()
					want := ref[name]
					refMu.Unlock()
					if !bytes.Equal(got, want) {
						violation("Get(%s) returned %d bytes that differ from the %d put", name, len(got), len(want))
					}
				case roll < 65: // put a new file
					name := fmt.Sprintf("w-%04d", putSeq.Add(1))
					data := make([]byte, 1+r.Intn(2*extBytes))
					r.Read(data)
					atomic.AddInt64(&res.Puts, 1)
					if err := store.Put(name, data); err != nil {
						atomic.AddInt64(&res.PutErrs, 1)
						break
					}
					refMu.Lock()
					ref[name] = data
					names = append(names, name)
					refMu.Unlock()
				case roll < 78: // move one extent by hand
					name := pick(r)
					exts, ok := store.Extents(name)
					if !ok || len(exts) == 0 {
						break
					}
					to := "3-rep"
					if r.Intn(2) == 0 {
						to = "rs-9-6"
					}
					atomic.AddInt64(&res.Transcodes, 1)
					if _, err := store.TranscodeExtent(name, r.Intn(len(exts)), to); err != nil {
						atomic.AddInt64(&res.TranscodeErrs, 1)
					}
				case roll < 88: // tier daemon scan (moves + trickle scrub)
					atomic.AddInt64(&res.Ticks, 1)
					if _, err := daemon.Tick(now); err != nil {
						atomic.AddInt64(&res.TickErrs, 1)
					}
				case roll < 93: // concurrent recovery (sweeps what failed moves left)
					atomic.AddInt64(&res.Recovers, 1)
					store.Recover()
				default: // brief single-node outage
					atomic.AddInt64(&res.Outages, 1)
					node := r.Intn(nodes)
					fs.SetNodeDown(node, true)
					time.Sleep(200 * time.Microsecond)
					fs.SetNodeDown(node, false)
				}
			}
		}()
	}
	wg.Wait()

	// The invariant: injection off, the store repairs itself completely.
	fs.SetEnabled(false)
	res.Faults = fs.Stats()
	refMu.Lock()
	res.Files = len(ref)
	refMu.Unlock()
	if len(res.Violations) > 0 {
		return res, fmt.Errorf("chaos: %d mid-run violations, first: %s", len(res.Violations), res.Violations[0])
	}
	if res.Faults.Total() == 0 {
		return res, fmt.Errorf("chaos: vacuous run — no faults were injected")
	}

	if res.FinalRecover, err = store.Recover(); err != nil {
		return res, fmt.Errorf("chaos: final recover: %w", err)
	}
	if res.FinalScrub, err = store.Scrub(0); err != nil {
		return res, fmt.Errorf("chaos: final scrub: %w", err)
	}
	if res.FinalScrub.Unrepairable > 0 {
		detail := ""
		if reg := store.Obs(); reg != nil {
			for _, e := range reg.Trace("heal", 0).Events() {
				if e.Type == "unrepairable" {
					detail = fmt.Sprintf("; last: %s ext %d: %s", e.Name, e.Ext, e.Detail)
				}
			}
		}
		return res, fmt.Errorf("chaos: %d blocks unrepairable after faults stopped: %+v%s",
			res.FinalScrub.Unrepairable, res.FinalScrub, detail)
	}
	// A second pass proves the first converged: nothing latent remains.
	again, err := store.Scrub(0)
	if err != nil {
		return res, fmt.Errorf("chaos: convergence scrub: %w", err)
	}
	if again.CorruptFound+again.MissingFound > 0 {
		return res, fmt.Errorf("chaos: scrub did not converge: %+v", again)
	}
	fsck, err := store.Fsck()
	if err != nil {
		return res, fmt.Errorf("chaos: fsck: %w", err)
	}
	if !fsck.Healthy() {
		return res, fmt.Errorf("chaos: store unhealthy after repair: %+v", fsck)
	}
	sort.Strings(names)
	for _, name := range names {
		got, err := store.Get(name)
		if err != nil {
			return res, fmt.Errorf("chaos: final read of %s: %w", name, err)
		}
		if !bytes.Equal(got, ref[name]) {
			return res, fmt.Errorf("chaos: final read of %s differs from the bytes put", name)
		}
	}
	return res, nil
}
