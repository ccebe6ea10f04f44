// Package reshard changes a serving root's shard count while the
// front door keeps serving. A reshard is a ring diff: re-hashing the
// old and new shard counts names exactly the files whose owning shard
// changes (~1/N of them when growing by one), and only those move.
// Each move streams the file between shards with the store's own
// primitives — PutReader into the destination, a read-back verify,
// Delete from the source — so a name is always wholly readable on at
// least one shard; internal/serve's dual-ring routing turns that
// invariant into served availability.
//
// Nothing per name is journaled: the two stores' own committed records
// already say where every name is. The root holds one pending record,
// written once before any shard grows and removed once every name has
// settled, and every run (and every Attach) derives the moves still
// due from the old shards' listings, so a killed reshard resumes from
// whatever the stores say.
package reshard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/durable"
	"repro/internal/serve"
)

// Pending is the durable record of one unfinished reshard, stored at
// the serving root as serve.ReshardJournalName. Its presence IS the
// "reshard pending" bit: it appears (durable.WriteFile) before any
// shard directory grows and disappears (durable.Remove) only after the
// last name settles, so a crashed process can always tell a
// half-resharded root from a healthy one. A record the previous
// release wrote, with its per-name entries, decodes to the same three
// fields and resumes like any other.
type Pending struct {
	FromShards int `json:"from_shards"`
	ToShards   int `json:"to_shards"`
	// Vnodes is the ring geometry both assignments are computed under;
	// a resume under a different setting is refused.
	Vnodes int `json:"vnodes,omitempty"`
}

// pendingPath locates the pending record under a serving root.
func pendingPath(root string) string { return filepath.Join(root, serve.ReshardJournalName) }

// ReadPending loads the pending record at a serving root. A missing
// record returns (nil, nil): no reshard is pending.
func ReadPending(root string) (*Pending, error) {
	raw, err := os.ReadFile(pendingPath(root))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var p Pending
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("reshard: parsing %s: %w", pendingPath(root), err)
	}
	return &p, nil
}

// write commits the record (the durable "reshard pending" act).
func (p *Pending) write(root string) error {
	data, err := json.Marshal(p)
	if err != nil {
		return err
	}
	return durable.WriteFile(pendingPath(root), data)
}
