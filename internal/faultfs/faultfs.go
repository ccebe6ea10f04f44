// Package faultfs is a seeded, deterministic fault-injecting
// implementation of the store's block I/O seam (hdfsraid.BlockIO,
// matched structurally so the packages stay decoupled): probabilistic
// read errors, silent bit-flip corruption of written frames, torn
// writes that persist only a prefix, injected latency, and whole-node
// outages. It exists to prove the detection and self-healing machinery
// above the seam — the chaos harness (internal/chaos) puts one under
// every shard of a served fleet, and the heal and scrub tests drive
// single stores through it.
//
// Faults are drawn from a single seeded source, so a failing run
// replays exactly from its seed. Injection can be toggled as a whole
// (SetEnabled) — the chaos invariant is "faults off, everything
// readable" — while per-node outages are explicit switches.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected marks every error this package fabricates, so tests and
// callers can tell injected faults from real I/O failures. Injected
// read errors and outages are deliberately NOT hdfsraid.ErrCorrupt or
// fs.ErrNotExist: the store treats them as transient and retries,
// which is the behavior under test.
var ErrInjected = errors.New("faultfs: injected fault")

// Config sets the per-operation fault probabilities (each in [0,1])
// and the deterministic seed they are drawn with.
type Config struct {
	// Seed feeds the fault source; the same seed over the same
	// operation sequence injects the same faults.
	Seed int64
	// ReadErr is the probability a block open fails with a transient
	// injected error (a flaky device, not a verdict about the bytes).
	ReadErr float64
	// CorruptWrite is the probability a written frame has one bit
	// flipped on its way to disk — a silent, latent error the write
	// reports as success and only a CRC check can find.
	CorruptWrite float64
	// TornWrite is the probability a write persists only a random
	// prefix of the frame and fails — a crash mid-write.
	TornWrite float64
	// LatencyProb is the probability an operation sleeps for Latency
	// before proceeding (injection for pacing/backoff paths).
	LatencyProb float64
	Latency     time.Duration
}

// Stats counts injected faults by kind, plus operations passed clean.
type Stats struct {
	ReadErrs     int64
	BitFlips     int64
	TornWrites   int64
	Delays       int64
	DownDenials  int64
	CleanReads   int64
	CleanWrites  int64
	CleanRenames int64
	CleanRemoves int64
}

// Total returns the number of faults injected across all kinds.
func (s Stats) Total() int64 {
	return s.ReadErrs + s.BitFlips + s.TornWrites + s.Delays + s.DownDenials
}

// FS is the fault-injecting block I/O layer. Install it with
// (*hdfsraid.Store).SetBlockIO. The zero value is unusable; use New.
type FS struct {
	cfg     Config
	enabled atomic.Bool

	mu   sync.Mutex
	rng  *rand.Rand
	down map[int]bool

	readErrs, bitFlips, tornWrites atomic.Int64
	delays, downDenials            atomic.Int64
	cleanReads, cleanWrites        atomic.Int64
	cleanRenames, cleanRemoves     atomic.Int64
}

// New returns an enabled fault injector drawing from cfg.Seed.
func New(cfg Config) *FS {
	f := &FS{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		down: map[int]bool{},
	}
	f.enabled.Store(true)
	return f
}

// SetEnabled turns all injection on or off. Off, the FS is a plain
// passthrough — the chaos harness flips this to check its invariant.
func (f *FS) SetEnabled(on bool) { f.enabled.Store(on) }

// SetNodeDown marks one node (by index, matching the store's node-NN
// directories) unreachable: every operation on its blocks fails until
// the node is brought back. An outage is injection like any other, so
// it is also gated on SetEnabled — the invariant check needs a fully
// clean store.
func (f *FS) SetNodeDown(node int, downNow bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if downNow {
		f.down[node] = true
	} else {
		delete(f.down, node)
	}
}

// Stats returns the fault counts so far.
func (f *FS) Stats() Stats {
	return Stats{
		ReadErrs:     f.readErrs.Load(),
		BitFlips:     f.bitFlips.Load(),
		TornWrites:   f.tornWrites.Load(),
		Delays:       f.delays.Load(),
		DownDenials:  f.downDenials.Load(),
		CleanReads:   f.cleanReads.Load(),
		CleanWrites:  f.cleanWrites.Load(),
		CleanRenames: f.cleanRenames.Load(),
		CleanRemoves: f.cleanRemoves.Load(),
	}
}

// roll draws one uniform sample under the lock; p <= 0 never fires.
func (f *FS) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	f.mu.Lock()
	hit := f.rng.Float64() < p
	f.mu.Unlock()
	return hit
}

// intn draws a bounded sample under the lock.
func (f *FS) intn(n int) int {
	f.mu.Lock()
	v := f.rng.Intn(n)
	f.mu.Unlock()
	return v
}

// pathNode extracts the node index from a block path's node-NN parent
// directory, or -1 when the path is not under a node directory.
func pathNode(path string) int {
	dir := filepath.Base(filepath.Dir(path))
	if !strings.HasPrefix(dir, "node-") {
		return -1
	}
	var n int
	if _, err := fmt.Sscanf(dir, "node-%d", &n); err != nil {
		return -1
	}
	return n
}

// gate applies the faults every operation shares — outage denial and
// latency — returning an error when the operation must fail.
func (f *FS) gate(op, path string) error {
	if !f.enabled.Load() {
		return nil
	}
	if node := pathNode(path); node >= 0 {
		f.mu.Lock()
		isDown := f.down[node]
		f.mu.Unlock()
		if isDown {
			f.downDenials.Add(1)
			return fmt.Errorf("faultfs: %s %s: node %d down: %w", op, filepath.Base(path), node, ErrInjected)
		}
	}
	if f.cfg.Latency > 0 && f.roll(f.cfg.LatencyProb) {
		f.delays.Add(1)
		time.Sleep(f.cfg.Latency)
	}
	return nil
}

// Open opens a block file for reading, possibly failing with an
// injected transient error first.
func (f *FS) Open(path string) (io.ReadCloser, error) {
	if err := f.gate("open", path); err != nil {
		return nil, err
	}
	if f.enabled.Load() && f.roll(f.cfg.ReadErr) {
		f.readErrs.Add(1)
		return nil, fmt.Errorf("faultfs: open %s: %w", filepath.Base(path), ErrInjected)
	}
	f.cleanReads.Add(1)
	return os.Open(path)
}

// WriteFile writes a block frame, possibly tearing it (a prefix lands,
// the call fails) or silently flipping one bit (the call succeeds and
// the corruption waits for a CRC check to find it).
func (f *FS) WriteFile(path string, data []byte, perm os.FileMode) error {
	if err := f.gate("write", path); err != nil {
		return err
	}
	if f.enabled.Load() && len(data) > 0 {
		switch {
		case f.roll(f.cfg.TornWrite):
			f.tornWrites.Add(1)
			n := f.intn(len(data))
			os.WriteFile(path, data[:n], perm)
			return fmt.Errorf("faultfs: torn write of %s at %d/%d bytes: %w",
				filepath.Base(path), n, len(data), ErrInjected)
		case f.roll(f.cfg.CorruptWrite):
			f.bitFlips.Add(1)
			bad := make([]byte, len(data))
			copy(bad, data)
			bad[f.intn(len(bad))] ^= 1 << f.intn(8)
			return os.WriteFile(path, bad, perm)
		}
	}
	f.cleanWrites.Add(1)
	return os.WriteFile(path, data, perm)
}

// Rename moves a block file (outage and latency faults only: rename is
// atomic on a healthy node, and the machinery above depends on that).
func (f *FS) Rename(oldPath, newPath string) error {
	if err := f.gate("rename", newPath); err != nil {
		return err
	}
	f.cleanRenames.Add(1)
	return os.Rename(oldPath, newPath)
}

// Remove deletes a block file (outage and latency faults only).
func (f *FS) Remove(path string) error {
	if err := f.gate("remove", path); err != nil {
		return err
	}
	f.cleanRemoves.Add(1)
	return os.Remove(path)
}
