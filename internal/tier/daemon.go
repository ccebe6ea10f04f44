package tier

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// TokenBucket is a deterministic token-bucket rate limiter over
// caller-supplied float-second time, so the same code meters
// wall-clock daemons and virtual-clock simulations. Tokens refill at
// rate per second up to burst; Settle may drive the balance negative
// when an actual cost exceeds its estimate, which simply pushes the
// next admission further out — the long-run rate stays bounded.
type TokenBucket struct {
	rate   float64 // tokens per second
	burst  float64 // bucket depth
	tokens float64
	last   float64 // time of last refill
}

// NewTokenBucket returns a full bucket refilling at rate tokens/sec up
// to burst.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

func (b *TokenBucket) refill(now float64) {
	if now > b.last {
		b.tokens += (now - b.last) * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
}

// Burst returns the bucket's depth.
func (b *TokenBucket) Burst() float64 { return b.burst }

// Take withdraws n tokens at time now if the balance covers them,
// reporting whether the withdrawal happened.
func (b *TokenBucket) Take(now, n float64) bool {
	b.refill(now)
	if n > b.tokens {
		return false
	}
	b.tokens -= n
	return true
}

// Settle adjusts the balance by the difference between an actual cost
// and the estimate already taken for it (positive delta withdraws
// more, possibly below zero; negative refunds).
func (b *TokenBucket) Settle(now, delta float64) {
	b.refill(now)
	b.tokens -= delta
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// Available returns the token balance at time now.
func (b *TokenBucket) Available(now float64) float64 {
	b.refill(now)
	return b.tokens
}

// Scrubber is implemented by targets that can verify stored block
// checksums on a byte budget, returning the bytes actually read (a
// resumable trickle pass — hdfsraid.Store.Scrub is the canonical one).
// A daemon with a Scrubber runs it at the end of each scan on whatever
// tokens the move budget left over, so background verification shares
// the moves' rate cap without ever starving them.
type Scrubber interface {
	Scrub(maxBytes int64) (bytesRead int64, err error)
}

// DaemonConfig parameterizes the background rebalance daemon.
type DaemonConfig struct {
	// Interval is the seconds between rebalance scans; Start and Replay
	// need it > 0, a daemon driven only by Tick needs none.
	Interval float64
	// BytesPerSec caps the daemon's transcode traffic; 0 disables
	// rate limiting.
	BytesPerSec float64
	// Burst is the token-bucket depth in bytes; zero defaults to one
	// Interval's worth of budget. A move costing more than the burst
	// is admitted only from a full bucket and drives the balance
	// negative, so oversized moves still happen (no starvation) while
	// the debt keeps the long-run rate at BytesPerSec.
	Burst float64
	// BlockBytes converts the target's block-unit move costs to bytes
	// (required when BytesPerSec > 0).
	BlockBytes int
	// ScrubPerScan caps the bytes the daemon's Scrubber may verify per
	// scan; 0 disables scrubbing. With a rate limit, each scan grants
	// the scrubber min(ScrubPerScan, tokens left after moves) — moves
	// always have first claim on the budget.
	ScrubPerScan float64
}

// DaemonStats counts what the daemon has done so far.
type DaemonStats struct {
	Ticks      int
	Moves      int
	Promotions int
	Demotions  int
	// Deferred counts moves the policy wanted that a tick pushed to a
	// later scan because the byte budget was exhausted.
	Deferred int
	// BytesMoved is the transcode traffic executed, in bytes.
	BytesMoved float64
	// ScrubbedBytes is the block traffic the daemon's Scrubber has
	// verified from leftover budget, in bytes.
	ScrubbedBytes float64
	// Errors counts ticks that failed; the daemon keeps running and
	// retries on the next scan.
	Errors int
}

// Daemon is the tiering engine: it reads extent heat from a tracker,
// asks the policy which extents belong on which code, and moves them in
// a target — from a background goroutine that scans every Interval
// seconds, or one Tick at a time. Moves run hottest file first, under
// a token-bucket byte budget so transcode traffic never starves
// foreground reads. Moves that do not fit the remaining budget are
// deferred to a later scan rather than dropped. HotRAP and Anna both
// argue tier movement belongs in exactly this kind of continuously
// running, rate-limited background process instead of on the caller's
// thread.
type Daemon struct {
	// OnMove, when non-nil, observes every executed move with the
	// clock time it ran. The simulator hooks it to charge transcode
	// traffic to the shared network model. Set it before Start.
	OnMove func(mv MoveResult, now float64)

	// OnTick, when non-nil, runs at the start of every scan, before
	// the policy decides. Long-lived daemons over one-shot CLI stores
	// use it to refresh tracker heat from disk. Set it before Start.
	OnTick func(now float64)

	// Obs, when non-nil, receives the daemon's metrics: DaemonStats
	// mirrored onto counters, per-scan latency, and the bucket balance.
	// Point it at the store's registry to serve one combined snapshot,
	// or at a private registry to keep namespaces apart. Set it before
	// the first Tick.
	Obs *obs.Registry

	// Scrub, when non-nil alongside cfg.ScrubPerScan > 0, is run at the
	// end of every successful scan on the byte budget the moves left
	// over (StoreTarget implements it over hdfsraid.Store.Scrub). Set
	// it before Start.
	Scrub Scrubber

	tracker *Tracker
	policy  Policy
	target  Target
	cfg     DaemonConfig
	bucket  *TokenBucket
	dobs    *daemonObs // resolved from Obs at first instrumented tick

	mu      sync.Mutex
	stats   DaemonStats
	lastErr error

	runMu   sync.Mutex
	stopCh  chan struct{}
	doneCh  chan struct{}
	running bool
}

// NewDaemon validates the policy and config and returns a stopped
// daemon tiering target's extents by the heat in tracker (heat state
// often outlives one daemon). Drive it with Start/Stop on the wall
// clock, or call Tick directly from a simulation's virtual clock or a
// one-shot rebalance.
func NewDaemon(target Target, policy Policy, tracker *Tracker, cfg DaemonConfig) (*Daemon, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	if tracker == nil {
		return nil, fmt.Errorf("tier: nil tracker")
	}
	if cfg.Interval < 0 || cfg.BytesPerSec < 0 || cfg.Burst < 0 {
		return nil, fmt.Errorf("tier: negative daemon interval or budget")
	}
	d := &Daemon{tracker: tracker, policy: policy, target: target, cfg: cfg}
	if cfg.BytesPerSec > 0 {
		if cfg.BlockBytes <= 0 {
			return nil, fmt.Errorf("tier: rate-limited daemon needs BlockBytes to price moves")
		}
		burst := cfg.Burst
		if burst == 0 {
			burst = cfg.BytesPerSec * cfg.Interval
		}
		d.bucket = NewTokenBucket(cfg.BytesPerSec, burst)
	}
	return d, nil
}

// Tick runs one rebalance scan at time now: ask the policy for moves,
// order them hottest first, and execute while the byte budget lasts.
// It returns the moves executed this scan, stopping at the first
// failed move. Simulations call it from the engine's virtual clock;
// Start calls it from the wall clock; one call of an unbudgeted daemon
// is a one-shot rebalance.
func (d *Daemon) Tick(now float64) ([]MoveResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.Obs != nil && d.dobs == nil {
		d.dobs = newDaemonObs(d.Obs)
	}
	if d.dobs != nil {
		start := time.Now()
		before := d.stats
		defer func() {
			d.dobs.observeTick(d, before, now, time.Since(start))
		}()
	}
	d.stats.Ticks++
	if d.OnTick != nil {
		d.OnTick(now)
	}
	moves := d.policy.Decide(now, d.States(now))
	orderMoves(moves)
	var done []MoveResult
	for i, mv := range moves {
		var est float64
		if d.bucket != nil {
			blocks, err := d.target.ExtentMoveCost(mv.Name, mv.Ext, mv.To)
			if vanished(err) {
				continue
			}
			if err != nil {
				d.stats.Errors++
				d.lastErr = err
				return done, fmt.Errorf("tier: pricing %q -> %s: %w", mv.Name, mv.To, err)
			}
			est = float64(blocks * d.cfg.BlockBytes)
			admitted := d.bucket.Take(now, est)
			if !admitted && est > d.bucket.Burst() && d.bucket.Available(now) >= d.bucket.Burst() {
				// The move can never fit the bucket: admit it from a
				// full bucket into debt, so oversized moves are paced
				// by the refill rate instead of starving forever.
				d.bucket.Settle(now, est)
				admitted = true
			}
			if !admitted {
				// Out of budget: defer this and everything colder to a
				// later scan — hottest-first order is strict.
				d.stats.Deferred += len(moves) - i
				break
			}
		}
		res, err := d.execute(mv, now)
		if err != nil {
			if d.bucket != nil {
				d.bucket.Settle(now, -est) // refund the unexecuted move
			}
			if vanished(err) {
				continue
			}
			d.stats.Errors++
			d.lastErr = err
			return done, err
		}
		actual := float64(res.BlocksMoved * d.cfg.BlockBytes)
		if d.bucket != nil {
			d.bucket.Settle(now, actual-est)
		}
		d.stats.Moves++
		if mv.Promote {
			d.stats.Promotions++
		} else {
			d.stats.Demotions++
		}
		d.stats.BytesMoved += actual
		if d.OnMove != nil {
			d.OnMove(res, now)
		}
		done = append(done, res)
	}
	d.scrubTick(now)
	return done, nil
}

// States returns the policy-engine view of every tiering unit — every
// extent of every file — in the target at time now.
func (d *Daemon) States(now float64) []FileState {
	names := d.target.Files()
	states := make([]FileState, 0, len(names))
	for _, name := range names {
		n := d.target.Extents(name)
		for ext := 0; ext < n; ext++ {
			code, movedAt, ok := d.target.ExtentCode(name, ext)
			if !ok {
				continue
			}
			states = append(states, FileState{
				Name: name, Ext: ext, Code: code,
				Heat:     d.tracker.ExtentHeat(name, ext, now),
				LastMove: movedAt,
			})
		}
	}
	return states
}

// execute performs one decided move at time now, which the target
// records as the extent's move time for the dwell guard.
func (d *Daemon) execute(mv Move, now float64) (MoveResult, error) {
	moved, err := d.target.TranscodeExtent(mv.Name, mv.Ext, mv.To, now)
	if err != nil {
		return MoveResult{}, fmt.Errorf("tier: moving %q extent %d to %s: %w", mv.Name, mv.Ext, mv.To, err)
	}
	return MoveResult{Move: mv, BlocksMoved: moved}, nil
}

// scrubTick runs the trickle scrubber on whatever byte budget this
// scan's moves left in the bucket, capped at ScrubPerScan. The grant
// is withdrawn before scrubbing and the unused part settled back, so
// scrub traffic and move traffic share one long-run rate cap; when the
// leftovers cannot cover even one block frame the scrubber simply
// waits for a quieter scan (moves always have first claim). Caller
// holds d.mu.
func (d *Daemon) scrubTick(now float64) {
	if d.Scrub == nil || d.cfg.ScrubPerScan <= 0 {
		return
	}
	grant := d.cfg.ScrubPerScan
	if d.bucket != nil {
		if avail := d.bucket.Available(now); avail < grant {
			grant = avail
		}
		if grant < float64(d.cfg.BlockBytes) {
			return // not even one frame of leftover budget this scan
		}
		d.bucket.Settle(now, grant)
	}
	if grant <= 0 {
		return
	}
	used, err := d.Scrub.Scrub(int64(grant))
	if d.bucket != nil {
		// Refund the unread remainder (or charge the small overdraft a
		// heal's reconstruction reads can add).
		d.bucket.Settle(now, float64(used)-grant)
	}
	d.stats.ScrubbedBytes += float64(used)
	if err != nil {
		d.stats.Errors++
		d.lastErr = err
	}
}

// Start launches the background rebalance goroutine, ticking every
// Interval seconds of wall time until Stop. Tick errors are recorded
// (see Stats, Err) and the loop keeps running. Starting a running
// daemon, or one without a positive Interval, is an error.
func (d *Daemon) Start() error {
	if err := d.checkInterval(); err != nil {
		return err
	}
	d.runMu.Lock()
	defer d.runMu.Unlock()
	if d.running {
		return fmt.Errorf("tier: daemon already running")
	}
	d.running = true
	d.stopCh = make(chan struct{})
	d.doneCh = make(chan struct{})
	go d.loop(d.stopCh, d.doneCh)
	return nil
}

func (d *Daemon) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(time.Duration(d.cfg.Interval * float64(time.Second)))
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			// Errors land in stats/lastErr; keep running.
			d.Tick(float64(time.Now().UnixNano()) / 1e9)
		}
	}
}

// checkInterval refuses to schedule scans without a positive Interval.
func (d *Daemon) checkInterval() error {
	if d.cfg.Interval <= 0 {
		return fmt.Errorf("tier: daemon interval must be positive, got %v", d.cfg.Interval)
	}
	return nil
}

// Stop halts the background goroutine and waits for any in-flight
// scan to finish. Stopping a stopped daemon is a no-op.
func (d *Daemon) Stop() {
	d.runMu.Lock()
	defer d.runMu.Unlock()
	if !d.running {
		return
	}
	close(d.stopCh)
	<-d.doneCh
	d.running = false
}

// Stats returns a snapshot of the daemon's counters.
func (d *Daemon) Stats() DaemonStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Err returns the most recent tick error, if any.
func (d *Daemon) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastErr
}

// orderMoves sorts moves hottest file first (ties by name), so the
// files foreground traffic cares about most change tier soonest when
// a budget or an error cuts a scan short.
func orderMoves(moves []Move) {
	sort.SliceStable(moves, func(i, j int) bool {
		if moves[i].Heat != moves[j].Heat {
			return moves[i].Heat > moves[j].Heat
		}
		return moves[i].Name < moves[j].Name
	})
}
