package hdfsraid

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/durable"
)

// The manifest on disk is a snapshot plus an op log: manifest.json is
// the whole table as of the last checkpoint, manifest.log (a
// durable.Log) one fsynced record per mutation since. Every mutation,
// live or replayed, reaches the in-memory table through Manifest.apply,
// and only after its record is durable.
const (
	manifestName = "manifest.json"
	logName      = "manifest.log"
	// minCheckpointBytes floors the checkpoint trigger: the log is folded
	// once it outgrows the snapshot it would replace, or this.
	minCheckpointBytes = 64 << 10
)

// The record types. opGen heads every log and names the generation of
// the snapshot its records apply to; put and del are the file table's
// mutations; the rest are the transcode journal's transitions (see
// IntentState), the last three naming their entry by file and extent.
const (
	opGen      = "gen"
	opPut      = "put"
	opDel      = "del"
	opIntent   = "intent"
	opSwapping = "swapping"
	opCommit   = "commit"
	opRollback = "rollback"
)

// record is one manifest-log entry.
type record struct {
	Op     string           `json:"op"`
	Gen    int64            `json:"gen,omitempty"`
	Name   string           `json:"name,omitempty"`
	Ext    int              `json:"ext,omitempty"`
	File   *FileInfo        `json:"file,omitempty"`
	Intent *TranscodeIntent `json:"intent,omitempty"`
}

// queued returns the journal queue index of the entry for one extent of
// name, or -1.
func (m *Manifest) queued(name string, ext int) int {
	return slices.IndexFunc(m.Queue, func(in *TranscodeIntent) bool {
		return in.File == name && in.Extent == ext
	})
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
	case opIntent:
		if r.Intent == nil || m.queued(r.Intent.File, r.Intent.Extent) >= 0 {
			return errors.New("hdfsraid: manifest log: intent record empty or for an extent already journaled")
		}
		m.Queue = append(m.Queue, r.Intent)
	case opSwapping, opCommit, opRollback:
		i := m.queued(r.Name, r.Ext)
		if i < 0 {
			return fmt.Errorf("hdfsraid: manifest log: %s of %q extent %d, which has no journaled move", r.Op, r.Name, r.Ext)
		}
		in := m.Queue[i]
		if r.Op == opSwapping {
			in.State = IntentSwapping
			return nil
		}
		if r.Op == opCommit {
			// The finished move changes the extent's code and stripe
			// count, never its data-block range. Readers may hold the old
			// entry, so the extent map is copied, not edited.
			fi, ok := m.Files[in.File]
			if !ok || in.Extent < 0 || in.Extent >= len(fi.Extents) {
				return fmt.Errorf("hdfsraid: manifest log: commit of %q extent %d the file table lacks", in.File, in.Extent)
			}
			fi.Extents = slices.Clone(fi.Extents)
			fi.Extents[in.Extent].Code, fi.Extents[in.Extent].Stripes = in.To, in.NewStripes
			refreshSummary(&fi)
			m.Files[in.File] = fi
		}
		m.Queue = slices.Delete(m.Queue, i, i+1)
	default:
		return fmt.Errorf("hdfsraid: manifest log: unknown record type %q", r.Op)
	}
	return nil
}

// commit makes one mutation durable — one framed record, one fsync, the
// generation's header riding in the same write when the log is empty —
// and only then applies it, so an operation that failed is never served
// and a served one survives a crash. A log that has outgrown the
// snapshot is folded; the operation is already durable, so a failed
// checkpoint is just retried by the next commit. Caller holds mu.
func (s *Store) commit(r record) error {
	raw, err := json.Marshal(r)
	if err != nil {
		return err
	}
	recs, before := [][]byte{raw}, s.log.Size()
	if before == 0 {
		head, _ := json.Marshal(record{Op: opGen, Gen: s.manifest.LogGen}) // plain data: cannot fail
		recs = [][]byte{head, raw}
	}
	if err := s.log.Append(recs...); err != nil {
		return fmt.Errorf("hdfsraid: appending %s to the manifest log: %w", r.Op, err)
	}
	s.obs.add(cLogAppends, 1)
	s.obs.add(cLogBytes, s.log.Size()-before)
	if err := s.manifest.apply(r); err != nil {
		return err
	}
	if s.log.Size() > max(s.snapID.Size(), minCheckpointBytes) {
		_ = s.checkpoint()
	}
	return nil
}

// checkpoint folds the log into a new snapshot, crash-exactly: the
// snapshot for generation g+1 is made durable first (durable.WriteFile:
// old or new, never torn), only then is the generation-g log emptied. A
// crash between the two leaves a log older than its snapshot, which
// replayLog ignores and the next commit truncates. Caller holds mu (or
// has exclusive access during Create).
func (s *Store) checkpoint() error {
	next := s.manifest
	next.LogGen++
	raw, err := json.MarshalIndent(next, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(s.root, manifestName)
	if err := durable.WriteFile(path, raw); err != nil {
		return err
	}
	s.manifest.LogGen = next.LogGen
	s.log.Reset()
	s.obs.add(cCheckpoints, 1)
	// A stale identity only costs the next refresh a full load.
	id, err := os.Stat(path)
	if err == nil {
		s.snapID = id
	}
	return err
}

// readSnapshot parses manifest.json. id is the file's identity, by
// which refresh tells whether a checkpoint replaced it since; taken
// before the read, it is never newer than the content.
func readSnapshot(root string) (m Manifest, id os.FileInfo, err error) {
	path := filepath.Join(root, manifestName)
	if id, err = os.Stat(path); err != nil {
		return m, nil, fmt.Errorf("hdfsraid: %w", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return m, nil, fmt.Errorf("hdfsraid: %w", err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, nil, fmt.Errorf("hdfsraid: corrupt manifest: %w", err)
	}
	if m.Files == nil {
		m.Files = map[string]FileInfo{}
	}
	return m, id, nil
}

// A log's header can name another generation than the snapshot read
// beside it: an older one is what a crash between a checkpoint's two
// steps left, a newer one means a checkpoint landed between the reads.
var (
	errStaleLog = errors.New("hdfsraid: manifest log predates its snapshot")
	errNewerLog = errors.New("hdfsraid: manifest log is newer than its snapshot")
)

// replayLog applies the log's records from offset from onto m. The
// record at offset 0, and only it, must be the opGen header. Every
// record of a stale log is already in the snapshot, so none is applied
// (and Replay accepted none, so the next commit cuts them off).
func (s *Store) replayLog(m *Manifest, from int64) error {
	head := from == 0
	err := s.log.Replay(from, func(raw []byte) error {
		var r record
		if err := json.Unmarshal(raw, &r); err != nil {
			return fmt.Errorf("hdfsraid: corrupt manifest log record: %w", err)
		}
		switch {
		case head != (r.Op == opGen):
			return fmt.Errorf("hdfsraid: corrupt manifest log: %q record at offset %d", r.Op, s.log.Size())
		case !head:
			return m.apply(r)
		case r.Gen < m.LogGen:
			return errStaleLog
		case r.Gen > m.LogGen:
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

// load rebuilds the table from disk without changing anything there:
// the snapshot (m and id when Open has already read it), legacy shapes
// migrated in memory, then the log's valid prefix replayed through
// apply — both read again if a checkpoint landed in between. Caller
// holds mu (or has exclusive access during Open).
func (s *Store) load(m Manifest, id os.FileInfo) (err error) {
	for attempt := 0; ; attempt++ {
		if id == nil {
			if m, id, err = readSnapshot(s.root); err != nil {
				return err
			}
		}
		// Manifests written before the journal became a queue carry a
		// single-entry field, and pre-extent ones per-file entries only.
		if m.Journal != nil {
			m.Queue, m.Journal = append(m.Queue, m.Journal), nil
		}
		for name, fi := range m.Files {
			m.Files[name] = s.normalizeFileInfo(fi)
			m.newID(name)
		}
		if err = s.replayLog(&m, 0); err == errNewerLog && attempt < 3 {
			id = nil
			continue
		}
		// Fail fast if any extent references an unregistered code or an
		// inconsistent layout.
		for name, fi := range m.Files {
			if err == nil {
				err = s.validateExtents(name, fi)
			}
		}
		if err == nil {
			s.manifest, s.snapID = m, id
		}
		return err
	}
}

// refresh brings the table up to date with what other handles on this
// root committed since this one last looked, at the cost of the records
// they appended: unless a checkpoint replaced the snapshot (a new file),
// only the log's tail past this handle's offset is replayed. Callers
// hold mu and the store flock, which every other mover appends under.
func (s *Store) refresh() error {
	id, err := os.Stat(filepath.Join(s.root, manifestName))
	if err != nil || !os.SameFile(id, s.snapID) ||
		!id.ModTime().Equal(s.snapID.ModTime()) || id.Size() != s.snapID.Size() {
		return s.load(Manifest{}, nil)
	}
	return s.replayLog(&s.manifest, s.log.Size())
}
