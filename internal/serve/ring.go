// Package serve is the store's front door: a shard router spreading
// file names over N independent hdfsraid stores by consistent hashing,
// behind a streaming HTTP API. Each shard is a complete store — its
// own manifest, journal, heat tracker, tier daemon and obs registry —
// so shards share no locks and serve requests fully in parallel; the
// router's only shared state is the immutable hash ring. The paper's
// single-store prototype becomes a served system here: `hdfscli serve`
// exposes the handler, internal/chaos drives it with concurrent
// verified clients under fault injection, and the bench/ module
// measures it.
package serve

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// defaultVnodes is the virtual-node count per shard on the ring. 128
// points per shard keeps the expected per-shard load imbalance under a
// few percent at small shard counts while the whole ring stays tiny
// (N×128 points, built once at Open).
const defaultVnodes = 128

// ring is an immutable consistent-hash ring: shard s owns every key
// whose hash falls between one of its points and the previous point.
// Adding a shard moves only ~1/N of the keyspace, so a grown cluster
// re-ingests a bounded slice of its files — the property plain modulo
// hashing lacks.
type ring struct {
	hashes []uint64 // sorted point hashes
	shards []int    // shards[i] owns hashes[i]
}

// newRing builds the ring for n shards with vnodes points each
// (vnodes <= 0 uses the default).
func newRing(n, vnodes int) *ring {
	if vnodes <= 0 {
		vnodes = defaultVnodes
	}
	r := &ring{
		hashes: make([]uint64, 0, n*vnodes),
		shards: make([]int, 0, n*vnodes),
	}
	type point struct {
		hash  uint64
		shard int
	}
	points := make([]point, 0, n*vnodes)
	for s := 0; s < n; s++ {
		for v := 0; v < vnodes; v++ {
			points = append(points, point{hashKey(fmt.Sprintf("shard-%d/vnode-%d", s, v)), s})
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].hash < points[j].hash })
	for _, p := range points {
		r.hashes = append(r.hashes, p.hash)
		r.shards = append(r.shards, p.shard)
	}
	return r
}

// Ring is the exported, immutable view of a consistent-hash ring:
// just enough surface for the resharder to ring-diff two shard counts
// without reimplementing (and drifting from) the router's hash. Both
// sides of a reshard MUST come from NewRing with the same vnodes
// value, or the "moved names" set is garbage.
type Ring struct {
	r *ring
}

// NewRing builds the assignment ring for n shards with vnodes points
// each (vnodes <= 0 uses the same default the server uses).
func NewRing(n, vnodes int) Ring {
	return Ring{r: newRing(n, vnodes)}
}

// Shard returns the shard index owning a file name under this ring —
// bit-identical to the serving router's assignment at the same shard
// count and vnode setting.
func (g Ring) Shard(name string) int { return g.r.shardOf(name) }

// shardOf returns the shard owning a file name: the first ring point
// at or clockwise of the key's hash, wrapping at the top.
func (r *ring) shardOf(name string) int {
	h := hashKey(name)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return r.shards[i]
}

// hashKey is FNV-1a 64 through a splitmix64 finalizer. Bare FNV-1a
// avalanches too weakly in the high bits for keys differing only in a
// few trailing digits (exactly what vnode labels and generated file
// names look like), which shows up as multi-x shard imbalance; the
// finalizer spreads every input bit across the word.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
