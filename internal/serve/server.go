package serve

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/hdfsraid"
	"repro/internal/obs"
	"repro/internal/tier"
	"repro/internal/tier/accesslog"
)

// shardDirFmt names shard directories under the serving root.
const shardDirFmt = "shard-%02d"

// TierConfig enables a per-shard background tier daemon: each shard
// runs its own rebalancer over its own heat tracker, so tiering load
// scales out with the shards instead of serializing behind one scan.
type TierConfig struct {
	HotCode, ColdCode   string
	PromoteAt, DemoteAt float64
	MinDwell            float64
	// Interval is seconds between rebalance scans per shard.
	Interval float64
	// BytesPerSec caps each shard daemon's transcode traffic; 0
	// disables rate limiting.
	BytesPerSec float64
	// ScrubPerScan grants each shard's daemon up to this many bytes of
	// trickle scrubbing per scan; 0 disables.
	ScrubPerScan float64
	// HalfLife is the heat decay half-life in seconds; 0 uses a day.
	HalfLife float64
}

// Config controls Open.
type Config struct {
	// Vnodes is the ring's virtual-node count per shard; 0 uses the
	// default. Changing it remaps keys, so use one value per cluster.
	Vnodes int
	// Tier, when non-nil, starts a tier daemon per shard; Close stops
	// them and persists their heat.
	Tier *TierConfig
	// ResumeReshard permits opening a root with an unfinished
	// shard-count change pending. The caller MUST then attach a
	// resharder (internal/reshard.Attach) before serving traffic: it
	// restores the dual-ring routing that keeps unmoved names
	// readable. Without this flag such a root fails to open with
	// ErrReshardPending.
	ResumeReshard bool
	// ReadCacheBytes is the budget of the one cache of decoded extents
	// all shards share (hdfsraid.ReadCache): resident memory, spent on
	// whichever shards' extents are hot. 0 means no cache.
	ReadCacheBytes int64
}

// shard is one independent store plus its sidecars.
type shard struct {
	dir    string
	store  *hdfsraid.Store
	heat   *tier.HeatLog
	daemon *tier.Daemon
}

// Server routes file operations over N shards. All methods are safe
// for concurrent use: mutable routing state (the shard list and the
// rings, which change only during a reshard) sits behind a read-write
// mutex held just long enough to snapshot, and every other mutable
// bit lives inside a single shard's store.
type Server struct {
	root string
	cfg  Config
	// reg holds the front door's own metrics (reshard_* counters and
	// gauges); Stats merges it with every shard's registry.
	reg *obs.Registry
	// cache is the shards' shared read cache; nil when not configured.
	cache *hdfsraid.ReadCache

	mu     sync.RWMutex
	shards []*shard
	ring   *ring
	// oldRing and inflight are non-nil only while a reshard is in
	// flight; see reshard.go.
	oldRing  *ring
	inflight func(name string) bool
	epoch    int64
	rc       ReshardControl
}

// CreateShards initializes n shard stores under root (root/shard-00
// ... shard-NN), each a complete hdfsraid store with the given code,
// block size and extent size. It refuses a root that already holds
// shards.
func CreateShards(root, code string, blockSize, extentBlocks, n int) error {
	if n <= 0 {
		return fmt.Errorf("serve: need at least 1 shard, got %d", n)
	}
	if dirs, err := shardDirs(root); err == nil && len(dirs) > 0 {
		return fmt.Errorf("serve: %s already holds %d shards", root, len(dirs))
	}
	for i := 0; i < n; i++ {
		dir := filepath.Join(root, fmt.Sprintf(shardDirFmt, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if _, err := hdfsraid.CreateExt(dir, code, blockSize, extentBlocks); err != nil {
			return fmt.Errorf("serve: creating shard %d: %w", i, err)
		}
	}
	return nil
}

// shardDirs lists root's shard directories in shard order.
func shardDirs(root string) ([]string, error) {
	dirs, err := filepath.Glob(filepath.Join(root, "shard-*"))
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// Open opens every shard under root and builds the ring. With
// cfg.Tier set, each shard's tier daemon starts before Open returns.
// A root with an unfinished shard-count change pending refuses to
// open unless cfg.ResumeReshard is set — single-ring routing over a
// half-resharded directory would 404 every unmoved name.
func Open(root string, cfg Config) (*Server, error) {
	pending := pendingReshardJournal(root)
	if pending && !cfg.ResumeReshard {
		return nil, fmt.Errorf("serve: %w at %s", ErrReshardPending, root)
	}
	dirs, err := shardDirs(root)
	if err != nil {
		return nil, err
	}
	if pending {
		// A crash between a grow's MkdirAll and the store create can
		// leave trailing shard directories with no manifest; the
		// resharder's Grow will create their stores, so skip them here
		// rather than failing the whole open.
		for len(dirs) > 0 {
			last := dirs[len(dirs)-1]
			if _, err := os.Stat(filepath.Join(last, "manifest.json")); err == nil {
				break
			}
			dirs = dirs[:len(dirs)-1]
		}
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("serve: no shards at %s (create them first)", root)
	}
	srv := &Server{root: root, cfg: cfg, reg: obs.NewRegistry(), ring: newRing(len(dirs), cfg.Vnodes),
		cache: hdfsraid.NewReadCache(cfg.ReadCacheBytes)}
	for i, dir := range dirs {
		if want := srv.shardDir(i); dir != want {
			return nil, fmt.Errorf("serve: shard directories are not contiguous: found %s, want %s", dir, want)
		}
		sh, err := srv.openShard(i, nil)
		if err != nil {
			srv.Close()
			return nil, err
		}
		srv.shards = append(srv.shards, sh)
	}
	return srv, nil
}

func (s *Server) shardDir(i int) string { return filepath.Join(s.root, fmt.Sprintf(shardDirFmt, i)) }

// openShard is the one place a shard comes up, at Open and at Grow:
// open its store — or, given like and a directory that holds none yet,
// create it with like's geometry — attach the shared read cache, wire
// its tier sidecars.
func (s *Server) openShard(i int, like *hdfsraid.Store) (*shard, error) {
	dir := s.shardDir(i)
	var st *hdfsraid.Store
	var err error
	if _, statErr := os.Stat(filepath.Join(dir, "manifest.json")); statErr == nil || like == nil {
		st, err = hdfsraid.Open(dir)
	} else if err = os.MkdirAll(dir, 0o755); err == nil {
		st, err = hdfsraid.CreateExt(dir, like.CodeName(), like.BlockSize(), like.ExtentBlocks())
	}
	if err != nil {
		return nil, fmt.Errorf("serve: opening shard %d: %w", i, err)
	}
	st.SetReadCache(s.cache)
	sh := &shard{dir: dir, store: st}
	if err := s.wireTier(sh, s.cfg.Tier); err != nil {
		return nil, fmt.Errorf("serve: shard %d tier daemon: %w", i, err)
	}
	return sh, nil
}

// wireTier hooks the shard's heat log into its store's read path and
// starts the shard's daemon when tiering is configured. Heat lives in
// the shard's tier-heat.json snapshot plus its tier-heat.log, both
// managed by tier.HeatLog; each extent's dwell lives in the shard
// manifest's move records. Reads join the heat log's O(1) batch
// (crash-durable up to the unflushed batch; the flush that outgrows
// the snapshot folds the log, so it stays bounded while the server
// runs), and the daemon tails foreign appends instead
// of re-reading the heat file every scan.
func (s *Server) wireTier(sh *shard, tc *TierConfig) error {
	halfLife := 24.0 * 3600
	if tc != nil && tc.HalfLife > 0 {
		halfLife = tc.HalfLife
	}
	hl, err := tier.OpenHeatLog(sh.dir, halfLife, accesslog.Options{})
	if err != nil {
		return err
	}
	hl.Obs = sh.store.Obs()
	sh.heat = hl
	tr := hl.Tracker()
	now := func() float64 { return float64(time.Now().UnixNano()) / 1e9 }
	sh.store.OnReadExtent = func(name string, ext int) { hl.TouchExtent(name, ext, now()) }
	sh.store.Heat = func(name string, ext int) float64 { return tr.ExtentHeat(name, ext, now()) }
	if tc == nil {
		return nil
	}
	d, err := tier.NewDaemon(tier.StoreTarget{Store: sh.store}, tier.Policy{
		HotCode: tc.HotCode, ColdCode: tc.ColdCode,
		PromoteAt: tc.PromoteAt, DemoteAt: tc.DemoteAt, MinDwell: tc.MinDwell,
	}, tr, tier.DaemonConfig{
		Interval:     tc.Interval,
		BytesPerSec:  tc.BytesPerSec,
		BlockBytes:   sh.store.BlockSize(),
		ScrubPerScan: tc.ScrubPerScan,
	})
	if err != nil {
		return err
	}
	if tc.ScrubPerScan > 0 {
		d.Scrub = tier.StoreTarget{Store: sh.store}
	}
	// Before each scan, tail whatever other processes (CLI one-shots,
	// a co-resident daemon) appended since the last one — O(new
	// records), not a full heat-file reload.
	d.OnTick = func(float64) { hl.Refresh() }
	// The shard's daemon metrics land in the shard's own registry, so
	// the merged /stats snapshot carries every shard's scans and moves.
	d.Obs = sh.store.Obs()
	sh.daemon = d
	return d.Start()
}

// shardList snapshots the shard slice. Shards are only ever appended
// (Grow), so a snapshot stays valid after the lock is released.
func (s *Server) shardList() []*shard {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.shards
}

// Close stops every shard daemon and persists heat.
// The first error wins; shutdown continues regardless.
func (s *Server) Close() error {
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	for _, sh := range s.shardList() {
		if sh.daemon != nil {
			sh.daemon.Stop()
			keep(sh.daemon.Err())
		}
		if sh.heat != nil {
			// Fold the shard's log into a tight snapshot, then release
			// the writer. A kill instead of a clean Close loses at most
			// the unsynced batch; the log replays the rest at next open.
			keep(sh.heat.Compact())
			keep(sh.heat.Close())
		}
	}
	return first
}

// NumShards returns the shard count.
func (s *Server) NumShards() int { return len(s.shardList()) }

// ShardOf returns the shard index owning a file name under the
// current primary ring — stable for a given shard count and vnode
// setting.
func (s *Server) ShardOf(name string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.shardOf(name)
}

// Put streams a file into its owning shard. During a reshard new data
// always lands on the new ring — its post-reshard home — so nothing
// ingested mid-reshard ever needs a second move; a name its old-ring
// shard still holds is refused with ErrExists, as it would be with no
// reshard, instead of shadowing the copy the mover has yet to move.
func (s *Server) Put(name string, r io.Reader) error {
	rt := s.routeFor(name)
	if rt.old != nil {
		if _, ok := rt.old.store.Info(name); ok {
			return fmt.Errorf("serve: file %q %w", name, hdfsraid.ErrExists)
		}
	}
	return rt.cur.store.PutReader(name, r)
}

// readShard runs read against the name's owning shard. During a
// reshard a miss on the new ring falls back to the name's old-ring
// shard — a name is always wholly readable on at least one of the two —
// and a miss on both is classified by fallbackErr. A store reports a
// missing name before it delivers anything, so at most one run has any
// effect.
func (s *Server) readShard(name string, read func(*hdfsraid.Store) error) error {
	rt := s.routeFor(name)
	err := read(rt.cur.store)
	if rt.old == nil || !errors.Is(err, hdfsraid.ErrNotFound) {
		return err
	}
	switch err = read(rt.old.store); {
	case errors.Is(err, hdfsraid.ErrNotFound):
		return s.fallbackErr(name, rt, err)
	case err == nil || err == io.EOF:
		s.reg.Counter("reshard_fallback_reads_total").Inc()
	}
	return err
}

// Get reads a whole file from its owning shard (see readShard).
func (s *Server) Get(name string) (data []byte, err error) {
	err = s.readShard(name, func(st *hdfsraid.Store) error {
		data, err = st.Get(name)
		return err
	})
	return data, err
}

// ReadAt reads a byte range of a file from its owning shard,
// io.ReaderAt semantics (see readShard).
func (s *Server) ReadAt(p []byte, name string, off int64) (n int, err error) {
	err = s.readShard(name, func(st *hdfsraid.Store) error {
		n, err = st.ReadAt(p, name, off)
		return err
	})
	return n, err
}

// ReadTo streams a byte range of a file from its owning shard to w
// (hdfsraid.Store.ReadTo; see readShard — which shard serves is
// settled before begin runs or a byte is written).
func (s *Server) ReadTo(w io.Writer, name string, off, n int64, begin func(length, off, n int64) error) (written int64, err error) {
	err = s.readShard(name, func(st *hdfsraid.Store) error {
		written, err = st.ReadTo(w, name, off, n, begin)
		return err
	})
	return written, err
}

// Delete removes a file, returning the block replicas reclaimed.
// During a reshard the delete runs against BOTH rings' shards: a
// mid-move name may exist on either (or briefly both), and removing
// only one copy would let the resharder resurrect the other.
func (s *Server) Delete(name string) (int, error) {
	rt := s.routeFor(name)
	n1, err1 := rt.cur.store.Delete(name)
	if rt.old == nil {
		return n1, err1
	}
	n2, err2 := rt.old.store.Delete(name)
	if err1 == nil || err2 == nil {
		return n1 + n2, nil
	}
	if errors.Is(err1, hdfsraid.ErrNotFound) && errors.Is(err2, hdfsraid.ErrNotFound) {
		return 0, s.fallbackErr(name, rt, err1)
	}
	if !errors.Is(err1, hdfsraid.ErrNotFound) {
		return n1 + n2, err1
	}
	return n1 + n2, err2
}

// Info returns a file's metadata from its owning shard, consulting
// the old-ring shard during a reshard.
func (s *Server) Info(name string) (hdfsraid.FileInfo, bool) {
	rt := s.routeFor(name)
	fi, ok := rt.cur.store.Info(name)
	if ok || rt.old == nil {
		return fi, ok
	}
	return rt.old.store.Info(name)
}

// Files lists every stored file across all shards, sorted and
// deduplicated — a mid-move name exists on two shards but is one
// file.
func (s *Server) Files() []string {
	var names []string
	for _, sh := range s.shardList() {
		names = append(names, sh.store.Files()...)
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// Shard exposes shard i's store for tests, maintenance tooling and
// the resharder.
func (s *Server) Shard(i int) *hdfsraid.Store { return s.shardList()[i].store }

// Obs returns the server's own metrics registry — the home of the
// reshard_* counters and gauges, merged into Stats alongside the
// per-shard registries.
func (s *Server) Obs() *obs.Registry { return s.reg }

// Stats merges the server registry and every shard's registry into
// one snapshot: counters and histograms sum across shards, so
// store_get_* quantiles reflect the whole fleet's reads and the
// reshard_* series ride along.
func (s *Server) Stats() obs.Snapshot {
	merged := s.reg.Snapshot()
	for _, sh := range s.shardList() {
		if reg := sh.store.Obs(); reg != nil {
			merged.Merge(reg.Snapshot())
		}
	}
	// Gauges merge last-shard-wins, and a shard knows the shared cache's
	// size only as of its own last fill or drop.
	if s.cache != nil {
		merged.Gauges["store_cache_bytes"] = float64(s.cache.Bytes())
	}
	return merged
}

// ShardStats returns one shard's snapshot.
func (s *Server) ShardStats(i int) (obs.Snapshot, bool) {
	shards := s.shardList()
	if i < 0 || i >= len(shards) {
		return obs.Snapshot{}, false
	}
	if reg := shards[i].store.Obs(); reg != nil {
		return reg.Snapshot(), true
	}
	return obs.Snapshot{}, true
}

// Scrub runs one scrub pass over every shard, aggregating the reports.
func (s *Server) Scrub(maxBytesPerShard int64) (hdfsraid.ScrubReport, error) {
	var total hdfsraid.ScrubReport
	wrapped := true
	for i, sh := range s.shardList() {
		rep, err := sh.store.Scrub(maxBytesPerShard)
		total.BlocksScanned += rep.BlocksScanned
		total.BytesScanned += rep.BytesScanned
		total.CorruptFound += rep.CorruptFound
		total.MissingFound += rep.MissingFound
		total.Healed += rep.Healed
		total.Unrepairable += rep.Unrepairable
		wrapped = wrapped && rep.Wrapped
		if err != nil {
			return total, fmt.Errorf("serve: scrubbing shard %d: %w", i, err)
		}
	}
	total.Wrapped = wrapped
	return total, nil
}

// Repair rebuilds the given node indices on every shard.
func (s *Server) Repair(nodes []int) (hdfsraid.RepairReport, error) {
	var total hdfsraid.RepairReport
	for i, sh := range s.shardList() {
		rep, err := sh.store.Repair(nodes)
		total.Stripes += rep.Stripes
		total.Transfers += rep.Transfers
		total.BlocksRestored += rep.BlocksRestored
		if err != nil {
			return total, fmt.Errorf("serve: repairing shard %d: %w", i, err)
		}
	}
	return total, nil
}

// Fsck scans every shard's block inventory.
func (s *Server) Fsck() (hdfsraid.FsckReport, error) {
	var total hdfsraid.FsckReport
	for i, sh := range s.shardList() {
		rep, err := sh.store.Fsck()
		total.Blocks += rep.Blocks
		total.Missing += rep.Missing
		total.Corrupt += rep.Corrupt
		total.Orphans += rep.Orphans
		if err != nil {
			return total, fmt.Errorf("serve: fsck shard %d: %w", i, err)
		}
	}
	return total, nil
}
