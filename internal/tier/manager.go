package tier

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/durable"
	"repro/internal/hdfsraid"
)

// Target is a store the tiering manager can move data across codes
// in, with the extent as the unit of tiering: heat is tracked, policy
// is decided, moves are priced and executed per extent, so a large file
// with one hot region pays to move only that region's stripes. A store
// that tiers whole files exposes each file as a single extent. Both
// the on-disk HDFS-RAID store (StoreTarget) and the simulated cluster
// placement (ClusterTarget) satisfy it.
type Target interface {
	// Files lists stored file names.
	Files() []string
	// Extents returns the number of extents a file has (0 for an
	// unknown file).
	Extents(name string) int
	// ExtentCode returns the effective code name of one extent.
	ExtentCode(name string, ext int) (string, bool)
	// ExtentOf maps a file-global data block to the extent holding
	// it (-1 when unknown).
	ExtentOf(name string, block int) int
	// TranscodeExtent moves one extent to the named code and returns
	// the block-unit traffic the move cost.
	TranscodeExtent(name string, ext int, codeName string) (moved int, err error)
	// ExtentMoveCost prices one extent's move without performing it,
	// in block units: the rate-limited daemon's admission estimate
	// against its byte budget, before any data moves.
	ExtentMoveCost(name string, ext int, codeName string) (blocks int, err error)
}

// Manager glues tracker, policy and target together: hook OnRead into
// the data path (or a trace replay), call Rebalance periodically, and
// files migrate between the hot and cold codes as their heat crosses
// the policy thresholds.
type Manager struct {
	Tracker *Tracker
	Policy  Policy
	Target  Target

	// MoveWorkers bounds the worker pool Rebalance fans moves out to.
	// The policy emits at most one move per file and the store's
	// transcode path locks per file, so moves in one pass are always of
	// distinct files and safe to run concurrently. 0 or 1 executes
	// serially. Set it before the first Rebalance.
	MoveWorkers int

	mu       sync.Mutex // guards lastMove under concurrent moves
	lastMove map[string]float64
}

// NewManager validates the policy and returns a manager using the
// given tracker (heat state often outlives one manager).
func NewManager(target Target, policy Policy, tracker *Tracker) (*Manager, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	if tracker == nil {
		return nil, fmt.Errorf("tier: nil tracker")
	}
	return &Manager{Tracker: tracker, Policy: policy, Target: target,
		lastMove: map[string]float64{}}, nil
}

// OnRead records one whole-file access at time now; bind it to the
// store's read hook with the clock of your choice.
func (m *Manager) OnRead(name string, now float64) { m.Tracker.Touch(name, now) }

// OnReadBlock records one access to a file's data block at time now,
// attributing it to the extent holding the block. A negative block
// means the access carries no offset information and is recorded as a
// whole-file touch — which every extent inherits — rather than
// silently pinning legacy traces' heat onto extent 0. Trace replays
// feed heat through here.
func (m *Manager) OnReadBlock(name string, block int, now float64) {
	if block >= 0 {
		if ext := m.Target.ExtentOf(name, block); ext >= 0 {
			m.Tracker.TouchExtent(name, ext, now)
			return
		}
	}
	m.Tracker.Touch(name, now)
}

// moveKey names the dwell-guard entry for one tiering unit.
func moveKey(name string, ext int) string { return fmt.Sprintf("%s#%d", name, ext) }

// RestoreLastMoves seeds the per-file last-transcode times, so a
// reconstructed manager keeps honoring MinDwell.
func (m *Manager) RestoreLastMoves(moves map[string]float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, t := range moves {
		m.lastMove[name] = t
	}
}

// SaveLastMoves writes the per-file last-transcode times as JSON to
// path — the dwell-state counterpart of the heat snapshot for
// short-lived processes. The save is atomic and durable (durable.WriteFile), so a
// crash mid-save cannot corrupt the dwell history.
func (m *Manager) SaveLastMoves(path string) error {
	m.mu.Lock()
	raw, err := json.MarshalIndent(m.lastMove, "", "  ")
	m.mu.Unlock()
	if err != nil {
		return err
	}
	return durable.WriteFile(path, raw)
}

// LoadLastMoves restores per-file last-transcode times saved with
// SaveLastMoves. A missing file is an empty history.
func (m *Manager) LoadLastMoves(path string) error {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	moves := map[string]float64{}
	if err := json.Unmarshal(raw, &moves); err != nil {
		return err
	}
	m.RestoreLastMoves(moves)
	return nil
}

// MoveResult is one executed tiering move. Start and Duration describe
// the transfer window the move's bytes occupy: the manager executes
// moves instantaneously (Start = decision time, Duration = 0), while
// the rate-limited daemon paces admitted moves back to back at its
// budget rate, so simulations can smear each move's traffic over
// [Start, Start+Duration] instead of charging it all at tick time.
type MoveResult struct {
	Move
	BlocksMoved int
	Start       float64
	Duration    float64
}

// States returns the policy-engine view of every tiering unit — every
// extent of every file — in the target at time now.
func (m *Manager) States(now float64) []FileState {
	names := m.Target.Files()
	states := make([]FileState, 0, len(names))
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, name := range names {
		n := m.Target.Extents(name)
		for ext := 0; ext < n; ext++ {
			code, ok := m.Target.ExtentCode(name, ext)
			if !ok {
				continue
			}
			states = append(states, FileState{
				Name: name, Ext: ext, Code: code,
				Heat:     m.Tracker.ExtentHeat(name, ext, now),
				LastMove: m.lastMove[moveKey(name, ext)],
			})
		}
	}
	return states
}

// execute performs one decided move — the single funnel both
// Rebalance and the background Daemon run transcodes through — and
// records the move time for the dwell guard.
func (m *Manager) execute(mv Move, now float64) (MoveResult, error) {
	moved, err := m.Target.TranscodeExtent(mv.Name, mv.Ext, mv.To)
	if err != nil {
		return MoveResult{}, fmt.Errorf("tier: moving %q extent %d to %s: %w", mv.Name, mv.Ext, mv.To, err)
	}
	m.mu.Lock()
	m.lastMove[moveKey(mv.Name, mv.Ext)] = now
	m.mu.Unlock()
	return MoveResult{Move: mv, BlocksMoved: moved, Start: now}, nil
}

// Rebalance asks the policy for moves at time now and executes them by
// online transcoding, hottest file first, so the files foreground
// traffic cares about most are repaired onto their target tier before
// colder ones — and before any error cuts the pass short. It stops at
// the first transcode error, returning the moves already made; a move
// whose file a DELETE took since the scan decided is no error, just
// skipped (see vanished). Against
// the on-disk store, each move runs through the store's streaming
// transcode pipeline (per-stripe degraded reads feeding the encoder
// from pooled buffers), so steady-state rebalance traffic stays off
// the allocator's back and peak memory per move is O(stripes in
// flight). With MoveWorkers > 1, moves fan out to a bounded worker
// pool — the store serializes only same-file moves, and a pass never
// decides two moves of one file — hottest files are still dispatched
// first. For a continuously running, rate-limited alternative, see
// Daemon.
func (m *Manager) Rebalance(now float64) ([]MoveResult, error) {
	moves := m.Policy.Decide(now, m.States(now))
	orderMoves(moves)
	if m.MoveWorkers > 1 && len(moves) > 1 {
		return m.rebalanceParallel(moves, now)
	}
	var done []MoveResult
	for _, mv := range moves {
		res, err := m.execute(mv, now)
		if vanished(err) {
			continue
		}
		if err != nil {
			return done, err
		}
		done = append(done, res)
	}
	return done, nil
}

// vanished reports whether a move (or its pricing) failed only because
// its file was deleted between the scan that decided it and its turn:
// on a served shard that is a DELETE doing its job, not a reason to
// drop the colder moves behind it.
func vanished(err error) bool { return errors.Is(err, hdfsraid.ErrNotFound) }

// rebalanceParallel executes the ordered moves through a bounded
// worker pool. Workers pull moves in hottest-first order; on error the
// remaining queue is abandoned (in-flight moves drain) and the first
// error is returned with every move that did complete.
func (m *Manager) rebalanceParallel(moves []Move, now float64) ([]MoveResult, error) {
	workers := m.MoveWorkers
	if workers > len(moves) {
		workers = len(moves)
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		done     []MoveResult
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(moves) {
					return
				}
				res, err := m.execute(moves[i], now)
				if vanished(err) {
					continue
				}
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					failed.Store(true)
				} else {
					done = append(done, res)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return done, firstErr
}

// StoreTarget adapts the on-disk HDFS-RAID store to the Target
// interface.
type StoreTarget struct{ Store *hdfsraid.Store }

// Files lists the store's files.
func (t StoreTarget) Files() []string { return t.Store.Files() }

// Extents returns a file's extent count.
func (t StoreTarget) Extents(name string) int {
	exts, _ := t.Store.Extents(name)
	return len(exts)
}

// ExtentCode returns one extent's effective code name.
func (t StoreTarget) ExtentCode(name string, ext int) (string, bool) {
	return t.Store.ExtentCode(name, ext)
}

// ExtentOf maps a data block to its extent.
func (t StoreTarget) ExtentOf(name string, block int) int {
	return t.Store.ExtentOf(name, block)
}

// TranscodeExtent re-encodes one extent on disk — only that extent's
// stripes move — and reports the blocks read plus written.
func (t StoreTarget) TranscodeExtent(name string, ext int, codeName string) (int, error) {
	rep, err := t.Store.TranscodeExtent(name, ext, codeName)
	if err != nil {
		return 0, err
	}
	return rep.DataBlocksRead + rep.BlocksWritten, nil
}

// ExtentMoveCost prices one extent's move without performing it.
func (t StoreTarget) ExtentMoveCost(name string, ext int, codeName string) (int, error) {
	return t.Store.TranscodeExtentCost(name, ext, codeName)
}

// Scrub verifies stored block checksums on a byte budget through the
// store's trickle scrubber (resuming where the last call stopped),
// satisfying Scrubber so a daemon can spend leftover move budget on
// background verification. It returns the bytes actually read. Blocks
// the scrubber found but could not heal come back as an error, so a
// daemon's error stats (and its exit status) surface unrepairable
// corruption instead of burying it in a report nobody reads.
func (t StoreTarget) Scrub(maxBytes int64) (int64, error) {
	rep, err := t.Store.Scrub(maxBytes)
	if err == nil && rep.Unrepairable > 0 {
		err = fmt.Errorf("tier: scrub found %d unrepairable blocks", rep.Unrepairable)
	}
	return rep.BytesScanned, err
}
