package hdfsraid

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
)

// The manifest on disk is a durable.SnapLog: manifest.json is the whole
// table as of the last checkpoint, manifest.log one fsynced record per
// mutation since. Every mutation, live or replayed, reaches the
// in-memory table through Manifest.apply, and only after its record is
// durable.
const (
	manifestName = "manifest.json"
	logName      = "manifest.log"
	// minCheckpointBytes floors the checkpoint trigger: the log is folded
	// once it outgrows the snapshot it would replace, or this.
	minCheckpointBytes = 64 << 10
)

// The record types: put and del are the file table's mutations, move
// the commit point of an extent move (see TranscodeExtent).
const (
	opPut  = "put"
	opDel  = "del"
	opMove = "move"
)

// record is one manifest-log entry. Ext, Code, Stripes, Gen and T are a
// move's: the extent, the layout it now has and, for a tiering move,
// its clock time.
type record struct {
	Op      string      `json:"op"`
	Name    string      `json:"name,omitempty"`
	Ext     int         `json:"ext,omitempty"`
	File    *FileInfo   `json:"file,omitempty"`
	Code    string      `json:"code,omitempty"`
	Stripes int         `json:"stripes,omitempty"`
	Gen     int         `json:"gen,omitempty"`
	T       float64     `json:"t,omitempty"`
	Intent  *legacyMove `json:"intent,omitempty"`
}

// legacyMove is what replay keeps of an intent record of the move
// journal releases before layout generations wrote (intent, swapping,
// then commit or rollback, the last three naming their entry by file
// and extent). Their moves swapped blocks in place, so a committed one
// is a change of code and stripe count at generation 0; one still
// pending needs the block-level recovery only those releases have, and
// Open refuses the store (see Manifest.Queue).
type legacyMove struct {
	File       string `json:"file"`
	Extent     int    `json:"extent,omitempty"`
	To         string `json:"to"`
	NewStripes int    `json:"new_stripes"`
}

// move gives one extent of name a new layout: its code, stripe count
// and generation change, never its data-block range; a move at a clock
// time t != 0 also becomes the extent's Moved. Readers may hold the old
// entry, so the extent map is copied, not edited.
func (m *Manifest) move(name string, ext int, code string, stripes, gen int, t float64) error {
	fi, ok := m.Files[name]
	if !ok || ext < 0 || ext >= len(fi.Extents) {
		return fmt.Errorf("hdfsraid: manifest log: move of %q extent %d the file table lacks", name, ext)
	}
	fi.Extents = slices.Clone(fi.Extents)
	e := &fi.Extents[ext]
	e.Code, e.Stripes, e.Gen = code, stripes, gen
	if t != 0 {
		e.Moved = t
	}
	refreshSummary(&fi)
	m.Files[name] = fi
	return nil
}

// apply performs one logged mutation on the table: the one function
// behind both the live commit path and replay, so the two cannot drift.
// A refused record leaves the table as it was.
func (m *Manifest) apply(r record) error {
	switch r.Op {
	case opPut:
		if r.File == nil {
			return fmt.Errorf("hdfsraid: manifest log: put of %q carries no entry", r.Name)
		}
		m.Files[r.Name] = *r.File
		m.newID(r.Name)
	case opDel:
		delete(m.Files, r.Name)
		delete(m.ids, r.Name)
	case opMove:
		return m.move(r.Name, r.Ext, r.Code, r.Stripes, r.Gen, r.T)
	case "intent":
		if r.Intent == nil {
			return errors.New("hdfsraid: manifest log: empty intent record")
		}
		m.Queue = append(m.Queue, r.Intent)
	case "swapping":
	case "commit", "rollback":
		i := slices.IndexFunc(m.Queue, func(in *legacyMove) bool {
			return in != nil && in.File == r.Name && in.Extent == r.Ext
		})
		if i < 0 {
			return fmt.Errorf("hdfsraid: manifest log: %s of %q extent %d, which has no journaled move", r.Op, r.Name, r.Ext)
		}
		if in := m.Queue[i]; r.Op == "commit" {
			if err := m.move(in.File, in.Extent, in.To, in.NewStripes, 0, 0); err != nil {
				return err
			}
		}
		m.Queue = slices.Delete(m.Queue, i, i+1)
	default:
		return fmt.Errorf("hdfsraid: manifest log: unknown record type %q", r.Op)
	}
	return nil
}

// commit makes one mutation durable — one framed record, one fsync —
// and only then applies it, so an operation that failed is never served
// and a served one survives a crash. A log that has outgrown the
// snapshot is folded; the operation is already durable, so a failed
// checkpoint is just retried by the next commit. Caller holds mu.
func (s *Store) commit(r record) error {
	raw, err := json.Marshal(r)
	if err != nil {
		return err
	}
	before := s.log.Size()
	if err := s.log.Append(raw); err != nil {
		return fmt.Errorf("hdfsraid: appending %s to the manifest log: %w", r.Op, err)
	}
	s.obs.add(cLogAppends, 1)
	s.obs.add(cLogBytes, s.log.Size()-before)
	if err := s.manifest.apply(r); err != nil {
		return err
	}
	if s.log.Outgrown(minCheckpointBytes) {
		_ = s.checkpoint()
	}
	return nil
}

// checkpoint folds the log into the next generation's snapshot (see
// durable.SnapLog.Checkpoint). Caller holds mu (or has exclusive access
// during Create).
func (s *Store) checkpoint() error {
	err := s.log.Checkpoint(func(gen int64) ([]byte, error) {
		next := s.manifest
		next.LogGen = gen
		return json.MarshalIndent(next, "", "  ")
	})
	if err == nil {
		s.manifest.LogGen++
		s.obs.add(cCheckpoints, 1)
	}
	return err
}

// parseSnapshot parses manifest.json's content.
func parseSnapshot(raw []byte) (m Manifest, err error) {
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("hdfsraid: corrupt manifest: %w", err)
	}
	if m.Files == nil {
		m.Files = map[string]FileInfo{}
	}
	return m, nil
}

// load rebuilds the table from disk without changing anything there;
// refresh brings it up to date with what other handles on this root
// committed since this one last looked, replaying only the records they
// appended onto the live table unless a checkpoint replaced the
// snapshot. A table loaded afresh replaces the live one only once every
// extent in it names a registered code and a consistent layout. Callers
// hold mu (or have exclusive access during Open); refresh's also hold
// the store flock, which every other mover appends under.
func (s *Store) load() error    { return s.replay(s.log.Load) }
func (s *Store) refresh() error { return s.replay(s.log.Refresh) }

func (s *Store) replay(read func(restore func([]byte) (int64, error), apply func([]byte) error) error) error {
	var fresh *Manifest
	m := &s.manifest
	err := read(func(raw []byte) (int64, error) {
		if raw == nil {
			return 0, fmt.Errorf("hdfsraid: no %s in %s", manifestName, s.root)
		}
		loaded, err := parseSnapshot(raw)
		if err != nil {
			return 0, err
		}
		for name := range loaded.Files {
			loaded.newID(name)
		}
		fresh, m = &loaded, &loaded
		return loaded.LogGen, nil
	}, func(raw []byte) error {
		var r record
		if err := json.Unmarshal(raw, &r); err != nil {
			return fmt.Errorf("hdfsraid: corrupt manifest log record: %w", err)
		}
		return m.apply(r)
	})
	if err != nil || fresh == nil {
		return err
	}
	for name, fi := range fresh.Files {
		if err := s.validateExtents(name, fi); err != nil {
			return err
		}
	}
	s.manifest = *fresh
	return nil
}
