package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// SnapLog keeps an owner's state — the store's manifest, the tier heat
// — as a snapshot file (the whole state as of the last checkpoint) plus
// a Log of the records since. The snapshot names its generation and the
// log's first frame the generation its records apply to, so a pair that
// does not belong together is told apart, never replayed onto each
// other. Load and Refresh take the owner's restore, which starts its
// state over from a snapshot's content (nil: no file yet) and returns
// the generation it names, and apply, which applies one logged record.
// Handles in different processes serialize Append and Checkpoint under
// a lock, and Refresh under it before either.
type SnapLog struct {
	snap string
	log  *Log

	// The generation and file identity (nil: no file) of the snapshot
	// the state was restored from or last checkpointed to; loaded is
	// false until a Load succeeds, so a failed one is never tailed from.
	gen    int64
	id     os.FileInfo
	loaded bool
}

// genHeader is the first frame of every log; Op is always "gen".
type genHeader struct {
	Op  string `json:"op"`
	Gen int64  `json:"gen,omitempty"`
}

// An older log than the snapshot read before it is what a crash between
// a checkpoint's two steps left; a newer one means a checkpoint landed
// between the two reads.
var (
	errStaleLog = errors.New("durable: log predates its snapshot")
	errNewerLog = errors.New("durable: log is newer than its snapshot")
)

// OpenSnapLog opens the log at logPath (creating it when absent)
// beside the snapshot at snapPath. Nothing is read until Load.
func OpenSnapLog(snapPath, logPath string) (*SnapLog, error) {
	log, err := OpenLog(logPath)
	if err != nil {
		return nil, err
	}
	return &SnapLog{snap: snapPath, log: log}, nil
}

// Close releases the log file, and any lock held on it.
func (s *SnapLog) Close() error { return s.log.Close() }

// Lock takes the advisory lock on the log file (which, unlike the
// snapshot, is never replaced), blocking until it is free.
func (s *SnapLog) Lock() error { return Lock(s.log.f) }

// Unlock releases Lock's hold.
func (s *SnapLog) Unlock() error { return Unlock(s.log.f) }

// Size is the log's length as this handle knows it: the intact frames
// it has replayed or appended since the last checkpoint.
func (s *SnapLog) Size() int64 { return s.log.Size() }

// Outgrown reports whether the log is due a checkpoint: longer than
// the snapshot it would be folded into, and than floor.
func (s *SnapLog) Outgrown(floor int64) bool {
	if s.id != nil {
		floor = max(floor, s.id.Size())
	}
	return s.log.Size() > floor
}

// Load rebuilds the owner's state from disk without changing anything
// there: the snapshot through restore, then the log's valid prefix
// through apply — both read again if a checkpoint landed in between.
func (s *SnapLog) Load(restore func(snapshot []byte) (gen int64, err error), apply func(rec []byte) error) error {
	s.loaded = false
	for attempt := 0; ; attempt++ {
		id, err := os.Stat(s.snap) // before the read: never newer than the content
		var raw []byte
		if err == nil {
			raw, err = os.ReadFile(s.snap)
		}
		if os.IsNotExist(err) {
			id, raw, err = nil, nil, nil
		}
		if err != nil {
			return err
		}
		if s.gen, err = restore(raw); err != nil {
			return err
		}
		s.id = id
		if err = s.replay(0, apply); err == errNewerLog && attempt < 3 {
			continue
		}
		s.loaded = err == nil
		return err
	}
}

// Refresh brings the state up to date with what other handles committed
// since this one last looked, at the cost of the records they appended:
// unless a checkpoint replaced the snapshot (a new file), only the log's
// tail past this handle's offset is replayed.
func (s *SnapLog) Refresh(restore func(snapshot []byte) (gen int64, err error), apply func(rec []byte) error) error {
	id, err := os.Stat(s.snap)
	if os.IsNotExist(err) {
		id, err = nil, nil
	}
	if err != nil || !s.loaded || !sameFile(id, s.id) {
		return s.Load(restore, apply)
	}
	return s.replay(s.log.Size(), apply)
}

// sameFile: neither exists, or both are one file, unchanged.
func sameFile(a, b os.FileInfo) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return os.SameFile(a, b) && a.ModTime().Equal(b.ModTime()) && a.Size() == b.Size()
}

// replay applies the log's records from offset from. The record at
// offset 0, and only it, is the generation header. Every record of a
// stale log is already in the snapshot, so none is applied (and Replay
// accepted none, so the next Append cuts them off).
func (s *SnapLog) replay(from int64, apply func(rec []byte) error) error {
	head := from == 0
	err := s.log.Replay(from, func(rec []byte) error {
		if !head {
			return apply(rec)
		}
		var h genHeader
		if err := json.Unmarshal(rec, &h); err != nil || h.Op != "gen" {
			return fmt.Errorf("durable: log %s does not begin with a generation header", s.log.f.Name())
		}
		switch {
		case h.Gen < s.gen:
			return errStaleLog
		case h.Gen > s.gen:
			return errNewerLog
		}
		head = false
		return nil
	})
	if err == errStaleLog {
		return nil
	}
	return err
}

// Append makes recs durable — one write, one fsync, the generation's
// header riding in the same write when the log is empty. The owner
// applies them itself, once Append has returned nil.
func (s *SnapLog) Append(recs ...[]byte) error {
	if s.log.Size() == 0 {
		head, _ := json.Marshal(genHeader{Op: "gen", Gen: s.gen}) // plain data: cannot fail
		recs = append([][]byte{head}, recs...)
	}
	return s.log.Append(recs...)
}

// Checkpoint folds the log into a new snapshot, crash-exactly: what
// marshal returns for the next generation — the owner's state, which
// must hold every record appended so far — is made durable first
// (WriteFile: old or new, never torn), only then is this generation's
// log emptied. A crash between the two leaves a log older than its
// snapshot, which replay ignores and the next Append truncates.
func (s *SnapLog) Checkpoint(marshal func(gen int64) ([]byte, error)) error {
	raw, err := marshal(s.gen + 1)
	if err != nil {
		return err
	}
	if err := WriteFile(s.snap, raw); err != nil {
		return err
	}
	s.gen++
	s.log.Reset()
	s.id, _ = os.Stat(s.snap) // no identity only costs the next Refresh a full load
	s.loaded = true
	return nil
}
