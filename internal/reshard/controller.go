package reshard

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/hdfsraid"
	"repro/internal/serve"
)

// Options paces the mover.
type Options struct {
	// Throttle sleeps between names so a reshard trickles instead of
	// saturating the disks under live traffic. Default 0 (no pacing).
	Throttle time.Duration
}

// A transient per-name failure (an injected I/O error, a racing
// delete) is retried up to retries times, the delay doubling from
// backoff up to backoffMax; a name that still fails is parked until
// the next resume while the rest of the reshard proceeds. They are
// variables only so the chaos test can shorten them.
var (
	retries    = 4
	backoff    = 50 * time.Millisecond
	backoffMax = 2 * time.Second
)

// ErrNothingPending reports a Resume with no pending reshard — the
// previous one finished (or none was ever started). Resuming a
// finished reshard is a clean no-op by design: double-resume must
// never corrupt anything.
var ErrNothingPending = errors.New("reshard: nothing to resume")

// errKilled marks an abort injected by the test-only kill hook: the
// run stops with no cleanup, exactly as if the process had died.
var errKilled = errors.New("reshard: killed")

// errSrcGone reports a verify that found the source copy gone: a
// client delete raced the move, which moveName settles instead of
// retrying.
var errSrcGone = errors.New("reshard: source copy gone")

// Controller owns one serving root's reshard lifecycle: the pending
// record, moving, resuming, and the server's dual-ring routing
// hand-off. It implements serve.ReshardControl, so /admin/reshard
// drives it live; hdfscli reshard drives it offline through the same
// methods.
type Controller struct {
	root string
	srv  *serve.Server
	opt  Options

	mu sync.Mutex
	p  *Pending // nil when no reshard is pending
	// left holds the names still to move, true once parked after
	// exhausting their retries; it answers inFlight. moved counts the
	// names this run settled.
	left    map[string]bool
	moved   int
	running bool
	lastErr error
	done    chan struct{}

	// killHook simulates a crash at named points for kill-point
	// tests; production controllers have no hook.
	killHook func(point, name string) error
}

// move is one name leaving old-ring shard from for new-ring shard to.
type move struct {
	name     string
	from, to int
}

// Attach builds the controller for a serving root and wires it into
// the server: if a reshard is pending, Attach immediately grows the
// shard set, derives the names still to move and restores dual-ring
// routing — BEFORE any data moves — so every name is servable the
// moment traffic starts; the mover itself runs only when Start or
// Resume says so. Attach also registers the controller for the
// /admin/reshard endpoints.
func Attach(root string, srv *serve.Server, opt Options) (*Controller, error) {
	c := &Controller{root: root, srv: srv, opt: opt}
	p, err := ReadPending(root)
	if err != nil {
		return nil, err
	}
	if p != nil {
		if p.Vnodes != srv.Vnodes() {
			return nil, fmt.Errorf("reshard: pending reshard was started under vnodes=%d but the server uses %d; refusing to move names under a different ring", p.Vnodes, srv.Vnodes())
		}
		if p.ToShards <= p.FromShards || p.FromShards <= 0 {
			return nil, fmt.Errorf("reshard: corrupt pending record: %d -> %d shards", p.FromShards, p.ToShards)
		}
		c.p = p
		if err := srv.Grow(p.ToShards); err != nil {
			return nil, err
		}
		c.track(c.diff(p))
		srv.BeginResharding(p.FromShards, c.inFlight)
		c.setGauges()
	}
	srv.SetReshardControl(c)
	return c, nil
}

// Start runs a reshard to `to` shards, asynchronously. The pending
// record is written before anything else changes on disk, so a crash
// at any later point is resumable; the caller polls Status or blocks
// on Wait.
func (c *Controller) Start(to int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.running {
		return errors.New("reshard: already running")
	}
	if c.p != nil {
		return errors.New("reshard: an unfinished reshard is pending; resume it instead of starting a new one")
	}
	from := c.srv.NumShards()
	if to <= from {
		return fmt.Errorf("reshard: target %d must exceed the current %d shards (shrinking is not supported)", to, from)
	}
	p := &Pending{FromShards: from, ToShards: to, Vnodes: c.srv.Vnodes()}
	if err := p.write(c.root); err != nil {
		return err
	}
	c.p = p
	c.begin()
	return nil
}

// Resume continues a pending reshard, asynchronously. With nothing
// pending it returns ErrNothingPending and changes nothing — the
// double-resume no-op.
func (c *Controller) Resume() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.running {
		return errors.New("reshard: already running")
	}
	if c.p == nil {
		return ErrNothingPending
	}
	c.srv.Obs().Counter("reshard_resumes_total").Inc()
	c.begin()
	return nil
}

// begin flips to running and launches the mover. Caller holds mu.
func (c *Controller) begin() {
	c.running = true
	c.lastErr = nil
	c.moved = 0
	c.done = make(chan struct{})
	go c.run()
}

// Wait blocks until the current run ends and returns its error (nil
// when the reshard completed). With no run in flight it returns the
// last run's error immediately.
func (c *Controller) Wait() error {
	c.mu.Lock()
	running, ch := c.running, c.done
	err := c.lastErr
	c.mu.Unlock()
	if !running {
		return err
	}
	<-ch
	c.mu.Lock()
	err = c.lastErr
	c.mu.Unlock()
	return err
}

// Status reports progress; serve's /admin/reshard serves it.
func (c *Controller) Status() serve.ReshardStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := serve.ReshardStatus{Epoch: c.srv.ReshardEpoch(), Active: c.running, Present: c.p != nil}
	if c.lastErr != nil {
		st.Err = c.lastErr.Error()
	}
	if c.p != nil {
		st.From, st.To = c.p.FromShards, c.p.ToShards
	}
	st.Done, st.Skipped, st.Total = c.counts()
	return st
}

// counts reports the names settled, parked, and moved plus left.
// Caller holds mu.
func (c *Controller) counts() (done, parked, total int) {
	for _, p := range c.left {
		if p {
			parked++
		}
	}
	return c.moved, parked, c.moved + len(c.left)
}

// inFlight reports whether a name is mid-move: derived as due and not
// yet settled. The router consults it to answer 503 instead of 404
// when both rings miss.
func (c *Controller) inFlight(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.left[name]
	return ok
}

// diff lists the moves still due, straight from the stores: every name
// an old shard holds whose new-ring home is another shard.
func (c *Controller) diff(p *Pending) []move {
	newR := serve.NewRing(p.ToShards, p.Vnodes)
	var moves []move
	for i := 0; i < p.FromShards; i++ {
		for _, name := range c.srv.Shard(i).Files() {
			if j := newR.Shard(name); j != i {
				moves = append(moves, move{name, i, j})
			}
		}
	}
	return moves
}

// track makes moves the names left.
func (c *Controller) track(moves []move) {
	left := make(map[string]bool, len(moves))
	for _, m := range moves {
		left[m.name] = false
	}
	c.mu.Lock()
	c.left = left
	c.mu.Unlock()
}

// setGauges publishes progress into the server registry.
func (c *Controller) setGauges() {
	c.mu.Lock()
	done, total := c.moved, c.moved+len(c.left)
	pending := c.p != nil
	c.mu.Unlock()
	reg := c.srv.Obs()
	reg.Gauge("reshard_epoch").Set(float64(c.srv.ReshardEpoch()))
	progress := 1.0
	if pending {
		progress = 0
		if total > 0 {
			progress = float64(done) / float64(total)
		}
	}
	reg.Gauge("reshard_progress").Set(progress)
}

// run executes (or resumes) the whole reshard and records the terminal
// error and wakes Wait.
func (c *Controller) run() {
	err := c.runMoves()
	c.mu.Lock()
	c.lastErr = err
	c.running = false
	close(c.done)
	c.mu.Unlock()
	c.srv.Obs().Gauge("reshard_active").Set(0)
}

// runMoves is the mover body. Any error return leaves the pending
// record and the dual-ring routing in place — exactly the state a
// resume needs.
func (c *Controller) runMoves() error {
	c.mu.Lock()
	p := c.p
	c.mu.Unlock()
	reg := c.srv.Obs()
	reg.Gauge("reshard_active").Set(1)

	// Grow first so the new ring has shards to point at, then switch
	// to dual-ring routing BEFORE listing: from this moment every new
	// put lands on its post-reshard home. A put routed just before the
	// switch may still commit on an old shard, so the diff repeats
	// until it comes back empty.
	if err := c.srv.Grow(p.ToShards); err != nil {
		return err
	}
	c.srv.BeginResharding(p.FromShards, c.inFlight)
	reg.Gauge("reshard_epoch").Set(float64(c.srv.ReshardEpoch()))
	for moves := c.diff(p); len(moves) > 0; moves = c.diff(p) {
		c.track(moves)
		for _, m := range moves {
			err := c.moveOne(m)
			if errors.Is(err, errKilled) {
				return err
			}
			c.mu.Lock()
			if err != nil {
				c.left[m.name] = true
			} else {
				delete(c.left, m.name)
				c.moved++
			}
			c.mu.Unlock()
			c.setGauges()
			if c.opt.Throttle > 0 {
				time.Sleep(c.opt.Throttle)
			}
		}
		c.mu.Lock()
		done, parked, total := c.counts()
		c.mu.Unlock()
		if parked > 0 {
			return fmt.Errorf("reshard: %d of %d names parked after retries (%d settled); resume to retry them", parked, total, done)
		}
	}
	// Everything settled: drop the pending record (the durable
	// "finished" act), then collapse routing back to one ring.
	if err := durable.Remove(pendingPath(c.root)); err != nil {
		return err
	}
	c.mu.Lock()
	c.p, c.left = nil, nil
	c.mu.Unlock()
	c.srv.FinishResharding()
	c.setGauges()
	return nil
}

// moveOne runs moveName with bounded retries on transient failures. A
// kill-hook abort propagates immediately; a name that exhausts its
// retries returns its last error and is parked by the caller.
func (c *Controller) moveOne(m move) error {
	reg := c.srv.Obs()
	for attempt := 0; ; attempt++ {
		err := c.moveName(m)
		if err == nil || errors.Is(err, errKilled) {
			return err
		}
		if attempt == retries {
			reg.Counter("reshard_names_skipped_total").Inc()
			return err
		}
		reg.Counter("reshard_retries_total").Inc()
		time.Sleep(min(backoff<<attempt, backoffMax))
	}
}

// moveName settles one name wherever the stores say it is: only on
// the source, it is copied; on both, the destination copy is verified
// and the source deleted; no longer on the source, it is done. Every
// branch is idempotent, so a retry, a crash or a second resume
// converges.
func (c *Controller) moveName(m move) error {
	src, dst := c.srv.Shard(m.from), c.srv.Shard(m.to)
	fi, ok := src.Info(m.name)
	if !ok {
		// Moved by an earlier run, or deleted by a client (front-door
		// deletes hit both rings mid-reshard): nothing to move.
		return nil
	}
	if _, ok := dst.Info(m.name); !ok {
		if err := c.copy(m.name, int64(fi.Length), src, dst); err != nil {
			return err
		}
		if err := c.kill("copied", m.name); err != nil {
			return err
		}
	}
	switch err := verify(m.name, src, dst); {
	case errors.Is(err, errSrcGone):
		// A client delete raced the copy; respect it.
		if _, err := dst.Delete(m.name); err != nil && !errors.Is(err, hdfsraid.ErrNotFound) {
			return err
		}
		return nil
	case err != nil:
		return err // a vanished destination included: the retry re-copies
	}
	// The destination is authoritative: our copy, or a client's delete
	// and re-put that new-ring readers already see. The source copy is
	// redundant; "already gone" is tolerated.
	if _, err := src.Delete(m.name); err != nil && !errors.Is(err, hdfsraid.ErrNotFound) {
		return err
	}
	c.srv.Obs().Counter("reshard_names_moved_total").Inc()
	return c.kill("deleted", m.name)
}

// copy streams the name from src into dst with the store's own
// primitives — src's ReadTo feeding dst's PutReader through a pipe —
// so peak memory is one extent regardless of file size, and the
// destination copy is atomic: fully committed or rolled back, never
// half.
func (c *Controller) copy(name string, length int64, src, dst *hdfsraid.Store) error {
	pr, pw := io.Pipe()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		_, err := src.ReadTo(pw, name, 0, -1, nil)
		pw.CloseWithError(err)
	}()
	err := dst.PutReader(name, pr)
	pr.Close() // fails the source side's next write if the ingest stopped early
	<-drained
	if errors.Is(err, hdfsraid.ErrExists) {
		// An earlier run of ours committed the name first; verify
		// decides what it is.
		return nil
	}
	if err != nil {
		return err
	}
	c.srv.Obs().Counter("reshard_bytes_moved_total").Add(length)
	return nil
}

// verify reads the destination copy back in full — the source copy
// goes next, so the destination must be readable end to end first —
// then checks the source still holds the name (errSrcGone if not).
func verify(name string, src, dst *hdfsraid.Store) error {
	if _, err := dst.ReadTo(io.Discard, name, 0, -1, nil); err != nil {
		return err
	}
	if _, ok := src.Info(name); !ok {
		return errSrcGone
	}
	return nil
}

// kill is the crash-injection hook: when the test-only killHook
// returns an error at a named point, the run aborts with no cleanup,
// exactly as if the process had died there.
func (c *Controller) kill(point, name string) error {
	if c.killHook == nil {
		return nil
	}
	if err := c.killHook(point, name); err != nil {
		return fmt.Errorf("%w at %s(%s): %v", errKilled, point, name, err)
	}
	return nil
}
