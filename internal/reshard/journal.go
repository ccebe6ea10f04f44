// Package reshard changes a serving root's shard count while the
// front door keeps serving. A reshard is a ring diff: re-hashing the
// old and new shard counts names exactly the files whose owning shard
// changes (~1/N of them when growing by one), and only those move.
// Each move streams the file between shards with the store's own
// primitives — PutReader into the destination, chunked verify, Delete
// from the source — so a name is always wholly readable on at least
// one shard; internal/serve's dual-ring routing turns that invariant
// into served availability. Progress is journaled per name (staged →
// copied → committed → done) with atomic, directory-fsynced saves
// (durable.WriteFile), the same discipline as the transcode journal,
// so a killed reshard resumes idempotently from the journal at any
// point.
package reshard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/durable"
	"repro/internal/serve"
)

// State is a planned name's position in the move protocol. The states
// form a one-way crash-recovery ladder; every transition is journaled
// before the next destructive step:
//
//	staged    planned; the source shard holds the only copy
//	copied    the destination holds a complete, durable copy
//	committed the copy verified byte-exact; destination authoritative
//	done      the source copy is deleted; the move is over
//
// A crash in staged re-copies (the destination ingest either fully
// committed or rolled back, never half). A crash in copied re-runs
// the verify. A crash in committed re-runs the source delete, which
// tolerates "already gone". Every step is idempotent, so resuming
// twice — or resuming a resume — converges to the same end state.
type State string

// The journal states, in protocol order.
const (
	StateStaged    State = "staged"
	StateCopied    State = "copied"
	StateCommitted State = "committed"
	StateDone      State = "done"
)

// Entry is one planned move: a name leaving its old-ring shard for
// its new-ring shard.
type Entry struct {
	Name string `json:"name"`
	// From and To are the old-ring and new-ring shard indices.
	From  int   `json:"from"`
	To    int   `json:"to"`
	State State `json:"state"`
	// Err records a name parked after exhausting its retry budget; a
	// resume clears it and tries again.
	Err string `json:"err,omitempty"`
}

// Journal is the durable record of one reshard, stored at the serving
// root as serve.ReshardJournalName. Its presence IS the "reshard
// pending" bit: it appears (atomically) before any shard directory
// grows and disappears only after the last name settles, so a crashed
// process can always tell a half-resharded root from a healthy one.
type Journal struct {
	FromShards int `json:"from_shards"`
	ToShards   int `json:"to_shards"`
	// Vnodes is the ring geometry both assignments were computed
	// under; a resume under a different setting is refused.
	Vnodes int `json:"vnodes,omitempty"`
	// Planned flips once the move set is enumerated and journaled; a
	// journal with Planned false is a reshard that died between the
	// intent and the plan, and a resume re-plans from the live shards.
	Planned bool     `json:"planned"`
	Entries []*Entry `json:"entries,omitempty"`
}

// journalPath locates the journal under a serving root.
func journalPath(root string) string { return filepath.Join(root, serve.ReshardJournalName) }

// ReadJournal loads the reshard journal at a serving root. A missing
// journal returns (nil, nil): no reshard is pending.
func ReadJournal(root string) (*Journal, error) {
	raw, err := os.ReadFile(journalPath(root))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var j Journal
	if err := json.Unmarshal(raw, &j); err != nil {
		return nil, fmt.Errorf("reshard: parsing %s: %w", journalPath(root), err)
	}
	return &j, nil
}

// save writes the journal atomically and durably (durable.WriteFile):
// a crash mid-save leaves either the previous complete journal or the
// new one, never a truncated half, and the journal's directory entry —
// the durable "reshard pending" bit — survives power loss.
func (j *Journal) save(root string) error {
	data, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return err
	}
	return durable.WriteFile(journalPath(root), data)
}

// remove deletes the journal — the durable "reshard finished" act.
func (j *Journal) remove(root string) error {
	if err := os.Remove(journalPath(root)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Progress counts the journal's names: fully settled, parked on an
// error, and total planned.
func (j *Journal) Progress() (done, skipped, total int) {
	for _, e := range j.Entries {
		if e.State == StateDone {
			done++
		} else if e.Err != "" {
			skipped++
		}
	}
	return done, skipped, len(j.Entries)
}
