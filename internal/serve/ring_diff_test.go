package serve

import (
	"fmt"
	"testing"
)

// TestRingDiffMovesOnlyToNewShard is the reshard correctness property:
// growing the ring from n to n+1 shards must (a) re-home every moved
// name onto the NEW shard only — no name may shuffle between existing
// shards, or a reshard would have to move far more than it planned —
// and (b) move roughly 1/(n+1) of the keyspace, the consistent-hashing
// bound that makes resharding cheap at all.
func TestRingDiffMovesOnlyToNewShard(t *testing.T) {
	const keys = 20000
	for _, n := range []int{2, 4, 7, 16} {
		n := n
		t.Run(fmt.Sprintf("%d_to_%d", n, n+1), func(t *testing.T) {
			oldR := NewRing(n, 0)
			newR := NewRing(n+1, 0)
			moved := 0
			for i := 0; i < keys; i++ {
				name := fmt.Sprintf("ring-diff-%06d.dat", i)
				from, to := oldR.Shard(name), newR.Shard(name)
				if from < 0 || from >= n || to < 0 || to >= n+1 {
					t.Fatalf("out-of-range assignment for %q: %d -> %d", name, from, to)
				}
				if from == to {
					continue
				}
				moved++
				if to != n {
					t.Fatalf("%q moved %d -> %d: a grow must only move names TO the new shard %d", name, from, to, n)
				}
			}
			frac := float64(moved) / keys
			ideal := 1.0 / float64(n+1)
			if frac < 0.4*ideal || frac > 2.5*ideal {
				t.Fatalf("moved %.4f of keys growing %d -> %d shards; expected about %.4f", frac, n, n+1, ideal)
			}
			t.Logf("grow %d -> %d: moved %d/%d keys (%.2f%%, ideal %.2f%%)", n, n+1, moved, keys, frac*100, ideal*100)
		})
	}
}

// TestExportedRingMatchesRouter pins the exported Ring wrapper to the
// router's internal assignment: the reshard planner diffs Rings, and
// any drift between the two would move names to shards the server
// never routes to.
func TestExportedRingMatchesRouter(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		g := NewRing(n, 0)
		internal := newRing(n, 0)
		for i := 0; i < 5000; i++ {
			name := fmt.Sprintf("pin-%05d", i)
			if got, want := g.Shard(name), internal.shardOf(name); got != want {
				t.Fatalf("n=%d name=%q: exported Ring says shard %d, router says %d", n, name, got, want)
			}
		}
	}
}
