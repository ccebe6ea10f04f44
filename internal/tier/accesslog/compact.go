package accesslog

import (
	"errors"
	"os"
	"path/filepath"

	"repro/internal/durable"
)

// compactKillHook, when set by tests, is invoked at the named stage of
// the commit protocol ("folded", "committed"); returning an error
// aborts Compact there, simulating a crash at that kill point.
var compactKillHook func(stage string) error

// CompactKillHookForTest makes Compact abort with an error at the
// named commit-protocol stage ("folded" or "committed"), simulating a
// crash there; an empty stage clears the hook. Kill-point tests in
// dependent packages only.
func CompactKillHookForTest(stage string) {
	if stage == "" {
		compactKillHook = nil
		return
	}
	compactKillHook = func(s string) error {
		if s == stage {
			return errors.New("accesslog: compact killed at " + s)
		}
		return nil
	}
}

// Compact folds every sealed segment (all but the highest) with
// sequence > applied into the caller's accumulator via fold, then
// calls commit(newApplied) — which must durably record newApplied in
// the heat snapshot — and only then deletes the folded segments.
//
// Crash safety, at every kill point:
//   - before commit: the snapshot still says `applied`, all segments
//     survive, and the next compaction re-folds from a fresh snapshot
//     load — nothing lost, nothing double-counted.
//   - after commit, before the deletes: the snapshot says newApplied,
//     so replay and the next compaction skip the stale segments; they
//     are garbage-collected here on the next run.
//
// Writers are excluded per segment: the compactor takes an exclusive
// flock on each sealed segment and holds it across commit and delete,
// so a writer's shared-flock batch lands either before the fold (and
// is folded) or after the unlink (and the writer re-opens the live
// segment). A dir-wide compact.lock serializes compactors across
// processes. Returns the new applied sequence and how many records
// were folded.
func Compact(dir string, applied int64, fold func(Record) error, commit func(newApplied int64) error) (int64, int, error) {
	lock, err := os.OpenFile(filepath.Join(dir, "compact.lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		if os.IsNotExist(err) { // no log directory yet: nothing to fold
			return applied, 0, nil
		}
		return applied, 0, err
	}
	defer lock.Close()
	if err := durable.Lock(lock, true); err != nil {
		return applied, 0, err
	}
	defer durable.Unlock(lock)

	seqs, err := Segments(dir)
	if err != nil {
		return applied, 0, err
	}
	if len(seqs) == 0 {
		return applied, 0, nil
	}
	sealed := seqs[:len(seqs)-1]

	// Garbage from a crash after a previous commit: already folded
	// into the snapshot, delete without re-reading.
	for _, seq := range sealed {
		if seq <= applied {
			_ = os.Remove(segPath(dir, seq))
		}
	}

	var open []*os.File
	defer func() {
		for _, f := range open {
			_ = durable.Unlock(f)
			_ = f.Close()
		}
	}()

	newApplied, folded := applied, 0
	for _, seq := range sealed {
		if seq <= applied {
			continue
		}
		f, err := os.Open(segPath(dir, seq))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return applied, 0, err
		}
		if err := durable.Lock(f, true); err != nil {
			_ = f.Close()
			return applied, 0, err
		}
		open = append(open, f)
		data, err := os.ReadFile(segPath(dir, seq))
		if err != nil {
			return applied, 0, err
		}
		i := 0
		for i < len(data) {
			rec, next, ok := parseFrame(data, i)
			if ok {
				if err := fold(rec); err != nil {
					return applied, 0, err
				}
				folded++
				i = next
				continue
			}
			j := i + 1
			for j+1 < len(data) && !(data[j] == magic0 && data[j+1] == magic1) {
				j++
			}
			if j+1 >= len(data) {
				break
			}
			i = j
		}
		newApplied = seq
	}
	if newApplied == applied {
		return applied, 0, nil
	}

	if compactKillHook != nil {
		if err := compactKillHook("folded"); err != nil {
			return applied, 0, err
		}
	}
	if err := commit(newApplied); err != nil {
		return applied, 0, err
	}
	if compactKillHook != nil {
		if err := compactKillHook("committed"); err != nil {
			return newApplied, folded, err
		}
	}
	for _, seq := range sealed {
		if seq > applied && seq <= newApplied {
			_ = os.Remove(segPath(dir, seq))
		}
	}
	syncDir(dir)
	return newApplied, folded, nil
}
