package tier

import (
	"errors"
	"fmt"

	"repro/internal/hdfsraid"
)

// Target is a store the tiering daemon can move data across codes
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
	// ExtentCode returns the effective code name of one extent and the
	// time of its last tiering move (0 if never): the dwell lives with
	// the extent, so it is exactly as durable as the move.
	ExtentCode(name string, ext int) (code string, movedAt float64, ok bool)
	// ExtentOf maps a file-global data block to the extent holding
	// it (-1 when unknown).
	ExtentOf(name string, block int) int
	// TranscodeExtent moves one extent to the named code, recording at
	// as its move time, and returns the block-unit traffic the move
	// cost.
	TranscodeExtent(name string, ext int, codeName string, at float64) (moved int, err error)
	// ExtentMoveCost prices one extent's move without performing it,
	// in block units: the rate-limited daemon's admission estimate
	// against its byte budget, before any data moves.
	ExtentMoveCost(name string, ext int, codeName string) (blocks int, err error)
}

// MoveResult is one executed tiering move.
type MoveResult struct {
	Move
	BlocksMoved int
}

// vanished reports whether a move (or its pricing) failed only because
// its file was deleted between the scan that decided it and its turn:
// on a served shard that is a DELETE doing its job, not a reason to
// drop the colder moves behind it.
func vanished(err error) bool { return errors.Is(err, hdfsraid.ErrNotFound) }

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

// ExtentCode returns one extent's effective code name and Moved time.
func (t StoreTarget) ExtentCode(name string, ext int) (string, float64, bool) {
	fi, ok := t.Store.Info(name)
	if !ok || ext < 0 || ext >= len(fi.Extents) {
		return "", 0, false
	}
	e := fi.Extents[ext]
	if e.Code == "" {
		return t.Store.CodeName(), e.Moved, true
	}
	return e.Code, e.Moved, true
}

// ExtentOf maps a data block to its extent.
func (t StoreTarget) ExtentOf(name string, block int) int {
	return t.Store.ExtentOf(name, block)
}

// TranscodeExtent re-encodes one extent on disk — only that extent's
// stripes move, and the move record carries at — and reports the blocks
// read plus written.
func (t StoreTarget) TranscodeExtent(name string, ext int, codeName string, at float64) (int, error) {
	rep, err := t.Store.TranscodeExtentAt(name, ext, codeName, at)
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
