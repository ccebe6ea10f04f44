// Package tier implements adaptive hot/cold data tiering on top of the
// repository's coding schemes: a decayed-access heat tracker, a
// promote/demote policy engine with hysteresis, and a manager that
// moves data between a hot code with inherent double replication
// (replication, polygon, heptagon-local) and the cold RS baseline by
// online transcoding. Heat, policy and moves all operate at extent
// granularity — a hot region of a large file promotes on its own, the
// way HotRAP promotes individual hot records between LSM tiers; a
// store that tiers whole files exposes one extent per file.
// The design follows the paper's framing: double replication codes for
// hot data, RS(14,10) for cold.
package tier

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"

	"repro/internal/durable"
)

// Tracker is a concurrency-safe heat tracker: per-file and per-extent
// access counters with exponential decay, so heat is the number of
// recent accesses discounted by age. Whole-file touches (Touch) land
// in a file-level counter that every extent inherits in full (an
// unattributed access could have hit any extent, and ExtentHeat
// counts it toward each — see ExtentHeat); extent touches
// (TouchExtent) land on the extent alone. It is fed by store read
// hooks or by workload trace replay; time is caller-supplied (wall
// clock or a sim engine's virtual clock) so runs stay deterministic.
type Tracker struct {
	mu       sync.Mutex
	halfLife float64
	files    map[string]*fileEntry
	dirty    bool
}

type heatEntry struct {
	Heat float64 `json:"heat"`
	Last float64 `json:"last"` // time of last update, seconds
}

// fileEntry holds one file's counters: Whole collects accesses not
// attributed to an extent (legacy feeds, whole-file hooks), Exts the
// extent-attributed ones.
type fileEntry struct {
	Whole *heatEntry         `json:"whole,omitempty"`
	Exts  map[int]*heatEntry `json:"exts,omitempty"`
}

// NewTracker returns a tracker whose counters halve every halfLife
// seconds of inactivity. A non-positive halfLife disables decay.
func NewTracker(halfLife float64) *Tracker {
	return &Tracker{halfLife: halfLife, files: map[string]*fileEntry{}}
}

// decayed returns e's heat discounted from e.Last to now.
func (t *Tracker) decayed(e *heatEntry, now float64) float64 {
	if e == nil {
		return 0
	}
	if t.halfLife <= 0 || now <= e.Last {
		return e.Heat
	}
	return e.Heat * math.Exp2(-(now-e.Last)/t.halfLife)
}

// bump folds decay into e and adds n at time now.
func (t *Tracker) bump(e *heatEntry, n, now float64) {
	e.Heat = t.decayed(e, now) + n
	if now > e.Last {
		e.Last = now
	}
}

func (t *Tracker) entry(name string) *fileEntry {
	f, ok := t.files[name]
	if !ok {
		f = &fileEntry{}
		t.files[name] = f
	}
	return f
}

// Touch records one whole-file access to name at time now.
func (t *Tracker) Touch(name string, now float64) { t.TouchN(name, 1, now) }

// TouchN records n whole-file accesses to name at time now.
func (t *Tracker) TouchN(name string, n, now float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := t.entry(name)
	if f.Whole == nil {
		f.Whole = &heatEntry{}
	}
	t.bump(f.Whole, n, now)
	t.dirty = true
}

// TouchExtent records one access to extent ext of name at time now.
func (t *Tracker) TouchExtent(name string, ext int, now float64) {
	t.TouchExtentN(name, ext, 1, now)
}

// TouchExtentN records n accesses to extent ext of name at time now.
func (t *Tracker) TouchExtentN(name string, ext int, n, now float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := t.entry(name)
	if f.Exts == nil {
		f.Exts = map[int]*heatEntry{}
	}
	e, ok := f.Exts[ext]
	if !ok {
		e = &heatEntry{}
		f.Exts[ext] = e
	}
	t.bump(e, n, now)
	t.dirty = true
}

// fileHeatLocked aggregates a file's decayed heat: whole-file counter
// plus every extent counter.
func (t *Tracker) fileHeatLocked(f *fileEntry, now float64) float64 {
	h := t.decayed(f.Whole, now)
	for _, e := range f.Exts {
		h += t.decayed(e, now)
	}
	return h
}

// Heat returns name's decayed heat at time now (0 if never touched):
// the whole-file counter plus the sum over extents.
func (t *Tracker) Heat(name string, now float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.files[name]; ok {
		return t.fileHeatLocked(f, now)
	}
	return 0
}

// ExtentHeat returns the decayed heat of one extent of name at time
// now: the extent's counter plus the file-level counter (an access not
// attributed to an extent could have hit any of them, so every extent
// inherits it — which also lets legacy whole-file heat keep driving
// extent policy after an upgrade).
func (t *Tracker) ExtentHeat(name string, ext int, now float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, ok := t.files[name]
	if !ok {
		return 0
	}
	return t.decayed(f.Whole, now) + t.decayed(f.Exts[ext], now)
}

// Forget drops name's counters.
func (t *Tracker) Forget(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.files[name]; ok {
		t.dirty = true
	}
	delete(t.files, name)
}

// Dirty reports whether the tracker has changed since it was loaded or
// last saved. Save is a no-op on a clean tracker, so periodic
// snapshotters (the tier daemon) don't fsync an unchanged heat file
// every tick.
func (t *Tracker) Dirty() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dirty
}

// Len returns the number of tracked files.
func (t *Tracker) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.files)
}

// FileHeat is one tracked file's decayed heat.
type FileHeat struct {
	Name string
	Heat float64
}

// Heats returns every tracked file's aggregated decayed heat at time
// now, hottest first (ties broken by name for determinism).
func (t *Tracker) Heats(now float64) []FileHeat {
	t.mu.Lock()
	out := make([]FileHeat, 0, len(t.files))
	for name, f := range t.files {
		out = append(out, FileHeat{Name: name, Heat: t.fileHeatLocked(f, now)})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Heat != out[j].Heat {
			return out[i].Heat > out[j].Heat
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ExtentHeats returns the decayed per-extent heats of one file (extent
// counters only, without the shared file-level component), keyed by
// extent index.
func (t *Tracker) ExtentHeats(name string, now float64) map[int]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, ok := t.files[name]
	if !ok {
		return nil
	}
	out := make(map[int]float64, len(f.Exts))
	for ext, e := range f.Exts {
		out[ext] = t.decayed(e, now)
	}
	return out
}

// trackerState is the persisted form of a tracker. Files is the
// current shape; Entries is the pre-extent flat map, loaded (as
// file-level counters) but never written. AppliedSeq is the access-log
// watermark: every log segment with sequence <= AppliedSeq is already
// folded into this snapshot (see HeatLog); 0 for legacy heat files and
// stores not using the log.
type trackerState struct {
	HalfLife   float64               `json:"half_life"`
	AppliedSeq int64                 `json:"applied_seq,omitempty"`
	Files      map[string]*fileEntry `json:"files,omitempty"`
	Entries    map[string]*heatEntry `json:"entries,omitempty"`
}

// Save writes the tracker state as JSON to path, so one-shot CLI
// invocations can accumulate heat across runs. The save is atomic and
// durable (durable.WriteFile): a corrupt sidecar would silently reset
// tiering history, so a crash mid-save must not produce one. A clean tracker (no changes since load or last
// save) skips the write entirely when the file already exists.
func (t *Tracker) Save(path string) error {
	return t.SaveWithSeq(path, 0)
}

// SaveWithSeq is Save with an explicit access-log watermark recorded
// in the snapshot. HeatLog compaction uses it; plain Save writes 0.
func (t *Tracker) SaveWithSeq(path string, appliedSeq int64) error {
	t.mu.Lock()
	if !t.dirty && appliedSeq == 0 {
		if _, err := os.Stat(path); err == nil {
			t.mu.Unlock()
			return nil
		}
	}
	raw, err := json.MarshalIndent(trackerState{HalfLife: t.halfLife, AppliedSeq: appliedSeq, Files: t.files}, "", "  ")
	if err != nil {
		t.mu.Unlock()
		return err
	}
	t.dirty = false
	t.mu.Unlock()
	if err := durable.WriteFile(path, raw); err != nil {
		t.mu.Lock()
		t.dirty = true // the state on disk does not reflect us after all
		t.mu.Unlock()
		return err
	}
	return nil
}

// LoadTracker restores a tracker from path. A missing file yields a
// fresh tracker with the given half-life; a file saved before extent
// tracking loads its per-file counters as whole-file heat.
func LoadTracker(path string, halfLife float64) (*Tracker, error) {
	tr, _, err := LoadTrackerState(path, halfLife)
	return tr, err
}

// LoadTrackerState is LoadTracker plus the snapshot's access-log
// watermark (0 for legacy files), for callers resuming log replay.
func LoadTrackerState(path string, halfLife float64) (*Tracker, int64, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return NewTracker(halfLife), 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	var st trackerState
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, 0, err
	}
	tr := NewTracker(st.HalfLife)
	if st.Files != nil {
		tr.files = st.Files
	}
	for name, e := range st.Entries {
		tr.entry(name).Whole = e
	}
	return tr, st.AppliedSeq, nil
}
