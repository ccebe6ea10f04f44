package tier

import "fmt"

// Policy decides which code each file belongs on from its heat. The
// promote threshold sits above the demote threshold, so files whose
// heat wanders inside the (DemoteAt, PromoteAt) band stay put —
// hysteresis that prevents transcode thrashing — and MinDwell bounds
// how often any single file may move.
type Policy struct {
	// HotCode is the target for hot files: a code with inherent double
	// replication ("2-rep", "pentagon", "heptagon", "heptagon-local").
	HotCode string
	// ColdCode is the target for cold files, typically "rs-14-10".
	ColdCode string
	// PromoteAt is the decayed heat at or above which a file is
	// promoted to HotCode.
	PromoteAt float64
	// DemoteAt is the decayed heat at or below which a file is demoted
	// to ColdCode. Must be strictly below PromoteAt.
	DemoteAt float64
	// MinDwell is the minimum seconds between successive moves of the
	// same file (0 disables the dwell check).
	MinDwell float64
}

// Validate checks the policy's thresholds and code names.
func (p Policy) Validate() error {
	if p.HotCode == "" || p.ColdCode == "" {
		return fmt.Errorf("tier: policy needs hot and cold codes")
	}
	if p.HotCode == p.ColdCode {
		return fmt.Errorf("tier: hot and cold codes are both %q", p.HotCode)
	}
	if p.PromoteAt <= p.DemoteAt {
		return fmt.Errorf("tier: promote threshold %v must exceed demote threshold %v (hysteresis)",
			p.PromoteAt, p.DemoteAt)
	}
	if p.DemoteAt < 0 || p.MinDwell < 0 {
		return fmt.Errorf("tier: negative threshold or dwell")
	}
	return nil
}

// FileState is the policy engine's view of one tiering unit: a single
// extent of a file, carrying the extent's own decayed heat, so a hot
// region of a large file crosses the promote threshold on its own
// merits. (A whole-file target exposes one extent per file.)
type FileState struct {
	Name     string
	Ext      int     // extent index
	Code     string  // current code name
	Heat     float64 // decayed heat now
	LastMove float64 // time of the unit's last transcode (0 if never)
}

// Move is one tiering decision: transcode extent Ext of Name from code
// From to To.
type Move struct {
	Name     string
	Ext      int // extent index
	From, To string
	Heat     float64
	Promote  bool
}

// Decide returns the moves the policy wants at time now, in input
// order. Units already on their target code, inside the hysteresis
// band, or moved more recently than MinDwell are left alone. The
// policy is granularity-blind: it sees whatever extents the manager's
// target exposes.
func (p Policy) Decide(now float64, files []FileState) []Move {
	var moves []Move
	for _, f := range files {
		if p.MinDwell > 0 && f.LastMove > 0 && now-f.LastMove < p.MinDwell {
			continue
		}
		switch {
		case f.Heat >= p.PromoteAt && f.Code != p.HotCode:
			moves = append(moves, Move{Name: f.Name, Ext: f.Ext, From: f.Code, To: p.HotCode, Heat: f.Heat, Promote: true})
		case f.Heat <= p.DemoteAt && f.Code != p.ColdCode:
			moves = append(moves, Move{Name: f.Name, Ext: f.Ext, From: f.Code, To: p.ColdCode, Heat: f.Heat})
		}
	}
	return moves
}
