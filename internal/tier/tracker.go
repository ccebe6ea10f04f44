// Package tier implements adaptive hot/cold data tiering on top of the
// repository's coding schemes: a decayed-access heat tracker, a
// promote/demote policy engine with hysteresis, and a daemon that
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
	"sync"
)

// Tracker is a concurrency-safe heat tracker: one access counter per
// extent with exponential decay, so heat is the number of recent
// accesses discounted by age. It is fed by the store's extent read hook
// or by workload trace replay; time is caller-supplied (wall clock or a
// sim engine's virtual clock) so runs stay deterministic.
type Tracker struct {
	mu       sync.Mutex
	halfLife float64
	files    map[string]*fileEntry
}

type heatEntry struct {
	Heat float64 `json:"heat"`
	Last float64 `json:"last"` // time of last update, seconds
}

// fileEntry holds one file's extent counters. A snapshot written when
// files also had a whole-file counter ("whole") loads with it ignored.
type fileEntry struct {
	Exts map[int]*heatEntry `json:"exts,omitempty"`
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
}

// Heat returns name's decayed heat at time now (0 if never touched):
// the sum over its extents.
func (t *Tracker) Heat(name string, now float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := 0.0
	if f, ok := t.files[name]; ok {
		for _, e := range f.Exts {
			h += t.decayed(e, now)
		}
	}
	return h
}

// ExtentHeat returns the decayed heat of one extent of name at time
// now (0 if never touched).
func (t *Tracker) ExtentHeat(name string, ext int, now float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.files[name]; ok {
		return t.decayed(f.Exts[ext], now)
	}
	return 0
}

// Len returns the number of tracked files.
func (t *Tracker) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.files)
}

// trackerState is the persisted form of a tracker: the tier-heat.json
// snapshot. Gen is the generation of the tier-heat.log whose records
// apply to it (see HeatLog, durable.SnapLog).
type trackerState struct {
	HalfLife float64               `json:"half_life"`
	Gen      int64                 `json:"log_gen,omitempty"`
	Files    map[string]*fileEntry `json:"files,omitempty"`
}

// snapshot marshals the tracker as generation gen's snapshot.
func (t *Tracker) snapshot(gen int64) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return json.MarshalIndent(trackerState{HalfLife: t.halfLife, Gen: gen, Files: t.files}, "", "  ")
}

// restoreTracker parses a snapshot into a new tracker, which keeps the
// half-life the snapshot recorded; nil (no snapshot yet) is an empty
// tracker with the caller's.
func restoreTracker(raw []byte, halfLife float64) (*Tracker, int64, error) {
	if raw == nil {
		return NewTracker(halfLife), 0, nil
	}
	var st trackerState
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, 0, err
	}
	tr := NewTracker(st.HalfLife)
	if st.Files != nil {
		tr.files = st.Files
	}
	return tr, st.Gen, nil
}

// adopt moves src's state into t, whose identity stays valid for the
// daemons and hooks holding it. src must not be used again.
func (t *Tracker) adopt(src *Tracker) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.halfLife, t.files = src.halfLife, src.files
}
