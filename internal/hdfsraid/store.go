// Package hdfsraid is a miniature on-disk HDFS-RAID: it stores files
// striped by any registered code across per-node directories, survives
// killed nodes up to the code's fault tolerance, repairs them with the
// code's repair plans (moving only the planned partial parities and
// copies), and verifies block integrity with CRC-32C trailers — the
// same shape as the Facebook HDFS-RAID module the paper's prototype
// was built on, scaled to a laptop.
//
// On-disk layout:
//
//	root/manifest.json
//	root/node-03/myfile.2.7    (stripe 2, symbol 7; block bytes + CRC)
//	root/node-03/myfile.2.7.g1 (the same, once the extent has moved)
package hdfsraid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/durable"
)

// Manifest records the store's configuration and file table. On disk
// it is a snapshot (manifest.json, this struct) plus the log of
// mutations since (manifest.log; see manifestlog.go).
type Manifest struct {
	CodeName  string              `json:"code"`
	BlockSize int                 `json:"block_size"`
	Files     map[string]FileInfo `json:"files"`
	// ExtentBlocks is the ingest extent size in data blocks: Put
	// splits files into runs of this many blocks, each striped and
	// tiered independently. 0 stores every file as a single extent
	// (the pre-extent behavior).
	ExtentBlocks int `json:"extent_blocks,omitempty"`
	// Queue is the pending part of the move journal of releases before
	// layout generations (see legacyMove). This one never adds to it, and
	// Open refuses a store where it is not empty.
	Queue []*legacyMove `json:"transcode_queue,omitempty"`
	// LogGen is the generation of the log whose records apply to this
	// snapshot: each checkpoint writes the next one. A log whose header
	// names an older generation predates the snapshot and is ignored.
	LogGen int64 `json:"log_gen,omitempty"`

	// ids gives every file-table entry an in-memory identity (fileIDs),
	// assigned where apply handles a put and load rebuilds the table:
	// what the read cache keys bytes by. It lives beside FileInfo, not in
	// it: a committed transcode replaces the FileInfo and keeps the
	// identity, a delete retires it, a re-put gets a new one.
	ids map[string]uint64
}

// newID gives name's entry a fresh identity.
func (m *Manifest) newID(name string) {
	if m.ids == nil {
		m.ids = map[string]uint64{}
	}
	m.ids[name] = fileIDs.Add(1)
}

// FileInfo records one stored file: its length plus the extent map
// that carries the real layout. Stripes and Code are summary fields
// (total stripes across extents; the single extent's code) that Open
// checks against the extents.
type FileInfo struct {
	Length  int `json:"length"`
	Stripes int `json:"stripes"`
	// Code is the file's coding scheme when it differs from the store
	// default and the file is a single extent. Empty means the store
	// code (or a mixed multi-extent file; see Extents).
	Code string `json:"tier_code,omitempty"`
	// Extents is the file's layout: consecutive data-block runs, each
	// with its own code and stripe set. Never empty: Open refuses an
	// entry without one.
	Extents []Extent `json:"extents,omitempty"`
	// ExtentPaths records the block naming style: true means blocks
	// are extent-qualified (name.x<ext>.<stripe>.<symbol>), false the
	// flat name.<stripe>.<symbol> form of a store created without
	// extents. Fixed at ingest.
	ExtentPaths bool `json:"extent_paths,omitempty"`
}

// Store is an open on-disk cluster. Reads may run concurrently with
// each other and with Transcode: mu guards the manifest's file table,
// codecMu the per-code cache.
type Store struct {
	root string
	code core.Code

	// bio is the block-file I/O seam: every block read, write, rename
	// and removal goes through it, so fault injection (internal/
	// faultfs) and future remote backends slot in under the detection
	// and healing machinery. Default passthrough; see SetBlockIO.
	bio BlockIO

	// codeName, blockSize and extentBlocks mirror the manifest's
	// immutable configuration fields. Lock-free paths (streaming
	// ingest and transcode workers) read these, never the manifest —
	// load reassigns the whole manifest struct under mu, which unlocked
	// readers of its fields would race with.
	codeName     string
	blockSize    int
	extentBlocks int

	// framePool recycles the on-disk block frames (payload + CRC
	// trailer) writes assemble; payloadPool recycles bare block-size
	// buffers for block reads that are not into their final destination,
	// degraded-read payloads and encode pipelines. Both keep steady-
	// state block traffic allocation-free.
	framePool   *core.BlockPool
	payloadPool *core.BlockPool

	// zeroBlock is the content of every known-zero symbol (see
	// Extent.zeroSymbol): one shared, read-only block. It is never
	// pooled, never a read destination and never healed.
	zeroBlock []byte

	mu       sync.RWMutex
	manifest Manifest
	cache    *ReadCache // decoded hot extents; nil = none (SetReadCache)
	// log is the manifest's snapshot and op log (see manifestlog.go),
	// guarded by mu.
	log *durable.SnapLog

	codecMu sync.Mutex
	codecs  map[string]core.Code // per-code cache for tiered files

	// opMu gates the move path against the recovery pass: transcodes
	// hold the read side (any number of moves of distinct extents run
	// concurrently), Recover the write side (a generation being written
	// is, to its sweep, a stale one).
	opMu sync.RWMutex

	// lockFile makes one process at a time the store's mover:
	// transcodes flock it exclusively (refcounted — the flock is per
	// open file description, so moves of distinct files still run
	// concurrently inside this process) and the manifest is refreshed
	// when the flock is first taken, so a move never commits onto a
	// table predating another process's commits. Recover tries the
	// same exclusive lock without blocking: a refusal proves a live
	// mover, so the generation it is writing is not crash residue. The
	// fd lives as long as the store; a crashed process's flock is
	// released by the kernel.
	lockFile  *os.File
	flockMu   sync.Mutex
	flockRefs int

	// moveMu guards moveLocks, the per-extent move locks (and the
	// per-name ingest locks): moves of distinct extents proceed in
	// parallel, while two moves of one extent serialize (both would
	// write the same next generation).
	moveMu    sync.Mutex
	moveLocks map[string]*fileLock

	// OnReadExtent, when non-nil, observes every foreground read at
	// extent granularity: Get, ReadAt and ReadTo invoke it once per
	// extent the read touches (a whole-file read touches every extent),
	// ReadBlockInto with the extent holding the block. The tier
	// subsystem hooks it to feed extent heat; it must be cheap and
	// non-blocking. Set it before serving concurrent reads.
	OnReadExtent func(name string, ext int)

	// Heat, when non-nil, reports one extent's current access heat,
	// the reads OnReadExtent fed counted in. Repair rebuilds hot files
	// (by the sum over their extents) before cold ones, and the read
	// cache admits only an extent read before (heat above 1); without
	// it the cache admits every whole-extent miss. It must be safe for
	// concurrent use; set it before serving reads or repairing.
	Heat func(name string, ext int) float64

	// obs holds the store's always-on metrics: read/ingest latency
	// histograms, degraded-read and byte counters, transcode stage
	// timings and the journal event trace (see internal/obs and
	// docs/OBSERVABILITY.md). Never nil outside the overhead benchmark
	// gate, which prices the instrumentation by removing it.
	obs *storeObs

	// healSeq numbers quarantine captures and heal write-back temp
	// files, so concurrent heals of one block never collide on paths.
	healSeq atomic.Int64

	// scrubMu serializes scrub passes; scrubPos is the cursor the
	// trickle scrubber resumes from between budgeted calls.
	scrubMu  sync.Mutex
	scrubPos blockRef

	// killHook simulates a crash at named points for kill-point tests;
	// nil in production. See (*Store).kill.
	killHook func(point string) error

	// recovery is the report of the recovery pass Open ran.
	recovery RecoverReport
}

// fileLock is one entry in the per-file transcode lock table.
type fileLock struct {
	mu   sync.Mutex
	refs int
}

// lockMove acquires the named file's move lock, creating it on demand.
// Moves of distinct files never contend here.
func (s *Store) lockMove(name string) {
	s.moveMu.Lock()
	l := s.moveLocks[name]
	if l == nil {
		l = &fileLock{}
		s.moveLocks[name] = l
	}
	l.refs++
	s.moveMu.Unlock()
	l.mu.Lock()
}

// unlockMove releases the named file's move lock, dropping the table
// entry once the last holder or waiter is gone.
func (s *Store) unlockMove(name string) {
	s.moveMu.Lock()
	l := s.moveLocks[name]
	l.mu.Unlock()
	if l.refs--; l.refs == 0 {
		delete(s.moveLocks, name)
	}
	s.moveMu.Unlock()
}

// lockStoreForMove marks this process the store's single mover: the
// first in-process move takes the exclusive flock (waiting out any
// other process's moves) and replays what they logged meanwhile, so this
// process never commits onto a table predating another's commits;
// further in-process moves just join the refcount and proceed
// concurrently. Callers hold opMu's read side and no other store
// locks.
func (s *Store) lockStoreForMove() error {
	s.flockMu.Lock()
	defer s.flockMu.Unlock()
	if s.flockRefs == 0 {
		if err := durable.Lock(s.lockFile); err != nil {
			return fmt.Errorf("hdfsraid: locking store for move: %w", err)
		}
		s.mu.Lock()
		err := s.refresh()
		s.mu.Unlock()
		if err != nil {
			durable.Unlock(s.lockFile)
			return err
		}
	}
	s.flockRefs++
	return nil
}

// unlockStoreForMove releases one move's hold, dropping the flock
// when the last in-process move finishes.
func (s *Store) unlockStoreForMove() {
	s.flockMu.Lock()
	defer s.flockMu.Unlock()
	if s.flockRefs--; s.flockRefs == 0 {
		durable.Unlock(s.lockFile)
	}
}

// lockName is the advisory cross-process lock file beside the
// manifest (see Store.lockFile).
const lockName = ".store.lock"

// openFiles opens (creating if needed) the store's advisory lock file
// and its manifest log. Failure is fatal to Create/Open: without the
// lock a recovery pass could sweep the generation another live process
// is writing — the exact corruption the flock exists to prevent.
func (s *Store) openFiles() (err error) {
	if s.lockFile, err = os.OpenFile(filepath.Join(s.root, lockName), os.O_CREATE|os.O_RDWR, 0o644); err != nil {
		return fmt.Errorf("hdfsraid: opening store lock: %w", err)
	}
	s.log, err = durable.OpenSnapLog(filepath.Join(s.root, manifestName), filepath.Join(s.root, logName))
	if err != nil {
		return fmt.Errorf("hdfsraid: opening manifest log: %w", err)
	}
	return nil
}

// Create initializes a new store at root for the named code, storing
// every file as a single extent. See CreateExt for extent-granular
// tiering.
func Create(root, codeName string, blockSize int) (*Store, error) {
	return CreateExt(root, codeName, blockSize, 0)
}

// CreateExt initializes a new store whose Puts split files into
// extents of extentBlocks data blocks, each striped — and later tiered
// — independently, so a hot region of a large file can move to a
// replicated code while the rest stays on RS. extentBlocks <= 0
// stores whole files as single extents. An extent that does not fill
// its last stripe stores only the symbols that carry data (see
// Extent.zeroSymbol), so sizes need not be multiples of the codes'
// data-symbol counts — though every stripe, shortened or not, carries
// its full parities.
func CreateExt(root, codeName string, blockSize, extentBlocks int) (*Store, error) {
	if _, err := os.Stat(filepath.Join(root, manifestName)); err == nil {
		return nil, fmt.Errorf("hdfsraid: store already exists at %s", root)
	}
	s, err := buildStore(root, Manifest{CodeName: codeName, BlockSize: blockSize,
		ExtentBlocks: max(extentBlocks, 0), Files: map[string]FileInfo{}})
	if err != nil {
		return nil, err
	}
	if err := s.ensureNodeDirs(s.code.Nodes()); err != nil {
		return nil, err
	}
	if err := s.openFiles(); err != nil {
		return nil, err
	}
	if err := s.checkpoint(); err != nil {
		return nil, err
	}
	return s, nil
}

// buildStore assembles the in-memory store a manifest describes: its
// default codec, block pools and lock tables.
func buildStore(root string, m Manifest) (*Store, error) {
	c, err := core.New(m.CodeName)
	if err != nil {
		return nil, err
	}
	if m.BlockSize <= 0 {
		return nil, fmt.Errorf("hdfsraid: invalid block size %d", m.BlockSize)
	}
	return &Store{root: root, code: c, manifest: m, bio: osBlockIO{},
		codeName: m.CodeName, blockSize: m.BlockSize, extentBlocks: m.ExtentBlocks,
		framePool:   core.NewBlockPool(block.FrameSize(m.BlockSize)),
		payloadPool: core.NewBlockPool(m.BlockSize),
		zeroBlock:   make([]byte, m.BlockSize),
		codecs:      map[string]core.Code{m.CodeName: c},
		moveLocks:   map[string]*fileLock{},
		obs:         newStoreObs()}, nil
}

// Open loads an existing store: the manifest snapshot plus the valid
// prefix of its log. The snapshot is read once for the store's fixed
// configuration, before anything is created in root, and again by load.
func Open(root string) (*Store, error) {
	raw, err := os.ReadFile(filepath.Join(root, manifestName))
	if err != nil {
		return nil, fmt.Errorf("hdfsraid: %w", err)
	}
	m, err := parseSnapshot(raw)
	if err != nil {
		return nil, err
	}
	s, err := buildStore(root, m)
	if err != nil {
		return nil, err
	}
	if err := s.openFiles(); err != nil {
		return nil, err
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	if len(s.manifest.Queue) > 0 {
		return nil, errors.New("hdfsraid: store has a pre-generation move pending; finish it with the previous release's recovery")
	}
	// Sweep what a move the last process left mid-flight wrote or had
	// not yet reclaimed.
	rec, err := s.Recover()
	if err != nil {
		return nil, fmt.Errorf("hdfsraid: recovering: %w", err)
	}
	s.recovery = rec
	return s, nil
}

// Code returns the store's default coding scheme (files may be tiered
// onto other codes; see FileCode).
func (s *Store) Code() core.Code { return s.code }

// FileCode returns the effective code name of a stored file: the
// shared code when every extent agrees, "mixed" for a file whose
// extents sit on different tiers.
func (s *Store) FileCode(name string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fi, ok := s.manifest.Files[name]
	if !ok {
		return "", false
	}
	return s.fileCodeLocked(fi), true
}

// MixedCode is the FileCode result for a file whose extents sit on
// more than one code.
const MixedCode = "mixed"

func (s *Store) fileCodeLocked(fi FileInfo) string {
	resolve := func(c string) string {
		if c == "" {
			return s.codeName
		}
		return c
	}
	code := resolve(fi.Extents[0].Code)
	for _, e := range fi.Extents[1:] {
		if resolve(e.Code) != code {
			return MixedCode
		}
	}
	return code
}

// codecByName resolves a code name ("" = store default) to its cached
// code. (CodeName is immutable after open, so only the cache needs
// guarding.)
func (s *Store) codecByName(name string) (core.Code, error) {
	if name == "" {
		name = s.codeName
	}
	s.codecMu.Lock()
	defer s.codecMu.Unlock()
	if cc, ok := s.codecs[name]; ok {
		return cc, nil
	}
	c, err := core.New(name)
	if err != nil {
		return nil, err
	}
	s.codecs[name] = c
	return c, nil
}

// extentCodecs resolves the code of every extent of a file.
func (s *Store) extentCodecs(fi FileInfo) ([]core.Code, error) {
	ccs := make([]core.Code, len(fi.Extents))
	for i, e := range fi.Extents {
		cc, err := s.codecByName(e.Code)
		if err != nil {
			return nil, err
		}
		ccs[i] = cc
	}
	return ccs, nil
}

// Nodes returns the number of node directories the store spans: the
// default code's length, or more when tiered extents use longer codes.
func (s *Store) Nodes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nodesLocked()
}

func (s *Store) nodesLocked() int {
	n := s.code.Nodes()
	for _, fi := range s.manifest.Files {
		for _, e := range fi.Extents {
			if cc, err := s.codecByName(e.Code); err == nil && cc.Nodes() > n {
				n = cc.Nodes()
			}
		}
	}
	return n
}

// ensureNodeDirs creates node directories 0..n-1 as needed.
func (s *Store) ensureNodeDirs(n int) error {
	for v := 0; v < n; v++ {
		if err := os.MkdirAll(s.nodeDir(v), 0o755); err != nil {
			return err
		}
	}
	return nil
}

// Files lists stored file names in sorted order.
func (s *Store) Files() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.filesLocked()
}

func (s *Store) filesLocked() []string {
	return slices.Sorted(maps.Keys(s.manifest.Files))
}

// Info returns metadata for a stored file.
func (s *Store) Info(name string) (FileInfo, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fi, ok := s.manifest.Files[name]
	return fi, ok
}

func (s *Store) nodeDir(v int) string {
	return filepath.Join(s.root, fmt.Sprintf("node-%02d", v))
}

// writeBlock writes block bytes as a frame — the payload, then one
// CRC-32C per block.CellSize bytes of it — through the BlockIO seam,
// assembling the frame in a pooled buffer instead of allocating one per
// block.
func (s *Store) writeBlock(path string, data []byte) error {
	if len(data) != s.blockSize {
		return fmt.Errorf("hdfsraid: writeBlock got %d bytes, want %d", len(data), s.blockSize)
	}
	frame := s.framePool.Get()
	defer s.framePool.Put(frame)
	copy(frame, data)
	block.PutCellChecksums(frame[len(data):], data)
	return s.bio.WriteFile(path, frame, 0o644)
}

// ErrCorrupt reports a checksum mismatch.
var ErrCorrupt = errors.New("hdfsraid: block checksum mismatch")

// ErrNotFound reports a lookup of a file the manifest does not hold.
// Callers building remote APIs (internal/serve) map it to a 404; match
// it with errors.Is.
var ErrNotFound = errors.New("no such file")

// ErrExists reports an ingest of a name the manifest already holds.
// The serving front door maps it to a 409 conflict; match it with
// errors.Is.
var ErrExists = errors.New("already stored")

// readBlockFile reads bytes [off, off+len(dst)) of the payload of one
// block file through bio into dst — usually the read's final
// destination — verifying every cell those bytes touch and reading no
// other. scratch pools buffers of the block size. The checksum table
// comes first, with the byte that must not follow it, and its length
// says how the frame is cut: 4*Cells bytes is one CRC per block.CellSize
// bytes, 4 bytes one cell spanning the block (every block of at most a
// cell, and larger ones written before frames had cells). Then the run
// of whole cells inside the window lands in dst in one read, and a cell
// the window cuts is read into a scratch buffer, verified whole, and
// only its wanted part copied. What Open returns must be an
// io.ReaderAt (see BlockIO.Open). read is the bytes taken from the
// file. On any error dst holds garbage.
// Most callers want (*Store).readBlockInto, which retries transient
// errors on top.
func readBlockFile(bio BlockIO, scratch *core.BlockPool, path string, dst []byte, off int) (read int, err error) {
	bs, lo, hi := scratch.Size(), off, off+len(dst)
	if lo < 0 || hi > bs {
		return 0, fmt.Errorf("hdfsraid: bytes %d-%d are outside a %d-byte block", lo, hi, bs)
	}
	f, err := bio.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	ra, ok := f.(io.ReaderAt)
	if !ok {
		return 0, fmt.Errorf("hdfsraid: %s opened as %T: %w", path, f, errNoReaderAt)
	}
	cells, cell := block.Cells(bs), block.CellSize
	table := make([]byte, 4*cells+1)
	n, err := ra.ReadAt(table, int64(bs))
	read += n
	switch {
	case n == len(table):
		return read, fmt.Errorf("%w: %s longer than %d bytes", ErrCorrupt, path, bs+4*cells)
	case n == 4*cells:
		// The frame's exact length; how the probe for one more byte came
		// back empty is no verdict about the ones before it.
	case n == 4:
		cell = bs
	case err == io.EOF:
		return read, fmt.Errorf("%w: %s shorter than %d bytes", ErrCorrupt, path, bs+4*cells)
	default:
		return read, err
	}
	var cut []byte // the scratch buffer, once a cell needs it
	for cs := lo / cell * cell; cs < hi; {
		ce := min(cs+cell, bs)
		whole := cs >= lo && ce <= hi
		var buf []byte
		if whole { // and every whole cell behind it, in the same read
			if ce = bs; hi < bs {
				ce = hi / cell * cell
			}
			buf = dst[cs-lo : ce-lo]
		} else {
			if cut == nil {
				cut = scratch.Get()
				defer scratch.Put(cut)
			}
			buf = cut[:ce-cs]
		}
		n, err := readCells(ra, table, buf, cs, cell, path)
		if read += n; err != nil {
			return read, err
		}
		if !whole {
			copy(dst[max(cs, lo)-lo:], buf[max(cs, lo)-cs:min(ce, hi)-cs])
		}
		cs = ce
	}
	return read, nil
}

// pieceCells is how many of a run's cells readCells reads and verifies
// on one worker: 128 KiB of block.CellSize cells.
const pieceCells = 2

// readCells reads the frame's bytes [cs, cs+len(buf)) into buf — whole
// cells of size cell, the last maybe short at the block's end — and
// checks each against its checksum in table, returning the bytes read.
// A run longer than a piece is per-byte work worth every core: its
// pieces go to parallel, each its own read. A run of one piece — every
// block of at most a cell, and every frame with one checksum — is one
// read on the caller's goroutine.
func readCells(ra io.ReaderAt, table, buf []byte, cs, cell int, path string) (int, error) {
	if piece := pieceCells * cell; len(buf) > piece {
		var read atomic.Int64
		err := parallel((len(buf)+piece-1)/piece, func(i int) error {
			n, err := readCells(ra, table, buf[i*piece:min((i+1)*piece, len(buf))], cs+i*piece, cell, path)
			read.Add(int64(n))
			return err
		})
		return int(read.Load()), err
	}
	n, err := ra.ReadAt(buf, int64(cs))
	if n < len(buf) {
		return n, err // the table lies past these bytes: not a verdict
	}
	for c := 0; c < len(buf); c += cell {
		if binary.LittleEndian.Uint32(table[(cs+c)/cell*4:]) != block.Checksum(buf[c:min(c+cell, len(buf))]) {
			return n, fmt.Errorf("%w: %s", ErrCorrupt, path)
		}
	}
	return n, nil
}

// checkNewFile validates a Put/PutReader target name. Caller holds mu.
func (s *Store) checkNewFile(name string) error {
	if name == "" || filepath.Base(name) != name {
		return fmt.Errorf("hdfsraid: invalid file name %q", name)
	}
	if _, dup := s.manifest.Files[name]; dup {
		return fmt.Errorf("hdfsraid: file %q %w", name, ErrExists)
	}
	return nil
}

// KillNode erases a node's directory contents, simulating node loss.
func (s *Store) KillNode(v int) error {
	if v < 0 || v >= s.Nodes() {
		return fmt.Errorf("hdfsraid: invalid node %d", v)
	}
	if err := os.RemoveAll(s.nodeDir(v)); err != nil {
		return err
	}
	return os.MkdirAll(s.nodeDir(v), 0o755)
}

// RepairReport summarizes one repair run.
type RepairReport struct {
	Stripes        int // stripes touched
	Transfers      int // block-units moved (the paper's repair bandwidth)
	BlocksRestored int
}

// Repair rebuilds the given failed nodes for every stored file by
// planning and executing each stripe's repair against the on-disk
// blocks, extent by extent (each extent's code plans its own repair).
// Only the plans' transfers touch data from other nodes, so the
// report's Transfers is the true network bill. When the Heat hook is
// set, hot files are repaired before cold ones, so the files
// foreground traffic cares about most regain their replicas first —
// and before any error cuts the pass short. Per-file repair work is
// independent, so files fan out to GOMAXPROCS workers: workers pull files in
// heat order, and on error the remaining queue is abandoned while
// in-flight repairs drain.
func (s *Store) Repair(failed []int) (RepairReport, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var rep RepairReport
	start := s.obs.now()
	defer func() {
		s.obs.since(hRepair, start)
		s.obs.add(cRepairBlocks, int64(rep.BlocksRestored))
		s.obs.add(cRepairTransfers, int64(rep.Transfers))
	}()
	// Reject out-of-range node indices up front: the per-extent filter
	// below must only drop nodes a *narrower* extent code doesn't
	// span, never hide a typo as a successful no-op repair.
	nodes := s.nodesLocked()
	for _, f := range failed {
		if f < 0 || f >= nodes {
			return rep, fmt.Errorf("hdfsraid: invalid node %d", f)
		}
	}
	names := s.filesLocked()
	if s.Heat != nil {
		// Decorate once — the hook may take locks or do decay math —
		// then sort hottest first, names breaking ties.
		heat := make(map[string]float64, len(names))
		for _, name := range names {
			for ext := range s.manifest.Files[name].Extents {
				heat[name] += s.Heat(name, ext)
			}
		}
		sort.SliceStable(names, func(i, j int) bool {
			if heat[names[i]] != heat[names[j]] {
				return heat[names[i]] > heat[names[j]]
			}
			return names[i] < names[j]
		})
	}
	var mu sync.Mutex
	err := parallel(len(names), func(i int) error {
		frep, err := s.repairFile(names[i], s.manifest.Files[names[i]], failed)
		mu.Lock()
		rep.Stripes += frep.Stripes
		rep.Transfers += frep.Transfers
		rep.BlocksRestored += frep.BlocksRestored
		mu.Unlock()
		return err
	})
	return rep, err
}

// repairFile rebuilds one file's blocks on the failed nodes, extent by
// extent. A shortened tail stripe's known-zero symbols are present by
// definition: survivors contribute the zero block without a read, and
// the ones the plan "restores" on a failed node are neither written
// nor counted. Caller holds mu's read side.
func (s *Store) repairFile(name string, fi FileInfo, failed []int) (RepairReport, error) {
	var rep RepairReport
	for ext, e := range fi.Extents {
		cc, err := s.codecByName(e.Code)
		if err != nil {
			return rep, err
		}
		// Nodes beyond this extent's code length hold none of its
		// blocks.
		var extFailed []int
		for _, f := range failed {
			if f < cc.Nodes() {
				extFailed = append(extFailed, f)
			}
		}
		if len(extFailed) == 0 {
			continue
		}
		// The failure pattern is fixed across stripes, so plan once and
		// execute per stripe with pooled payloads.
		plan, err := cc.PlanRepair(extFailed)
		if err != nil {
			return rep, err
		}
		k := cc.DataSymbols()
		for i := 0; i < e.Stripes; i++ {
			zero := func(sym int) bool { return e.zeroSymbol(k, i, sym) }
			transfers := plan.Bandwidth()
			if zero(k - 1) { // the shortened tail stripe
				transfers = liveBandwidth(plan, zero)
			}
			if transfers == 0 {
				continue // the failed nodes held only zero symbols
			}
			restored, err := s.repairStripe(cc, plan, extFailed, zero, func(v, sym int) string {
				return s.extentBlockPath(v, name, fi, ext, i, sym)
			})
			rep.BlocksRestored += restored
			if err != nil {
				return rep, fmt.Errorf("hdfsraid: %s extent %d stripe %d: %w", name, ext, i, err)
			}
			rep.Stripes++
			rep.Transfers += transfers
		}
	}
	return rep, nil
}

// repairStripe executes plan over one stripe whose blocks live at
// path(node, symbol): load into pooled buffers the blocks the plan's
// transfers read at surviving nodes, and no others, run the plan —
// which orders the steps that read recovered symbols after their
// recovery — and persist what it rebuilt on the failed nodes, returning
// the number of block files restored.
func (s *Store) repairStripe(cc core.Code, plan *core.RepairPlan, failed []int, zero func(sym int) bool, path func(v, sym int) string) (restored int, err error) {
	p := cc.Placement()
	var bufs [][]byte
	defer func() {
		for _, b := range bufs {
			s.payloadPool.Put(b)
		}
	}()
	nc := make(core.NodeContents, cc.Nodes())
	for v := range nc {
		nc[v] = map[int][]byte{}
	}
	for _, tr := range plan.Transfers {
		if slices.Contains(failed, tr.From) {
			continue
		}
		for _, term := range tr.Terms {
			v, sym := tr.From, term.Symbol
			if nc[v][sym] != nil {
				continue
			}
			if zero(sym) {
				nc[v][sym] = s.zeroBlock
				continue
			}
			buf := s.payloadPool.Get()
			bufs = append(bufs, buf)
			// The plan runs every transfer: one source lost fails it.
			if err := s.readBlockInto(path(v, sym), buf, 0); err != nil {
				return 0, err
			}
			nc[v][sym] = buf
		}
	}
	if err := core.ExecuteRepairPooled(nc, plan, s.blockSize, s.payloadPool); err != nil {
		return 0, err
	}
	// Persist the restored replicas, recycling each recovered buffer
	// (drawn from the payload pool by the executor) the moment it is on
	// disk.
	for _, f := range failed {
		for _, sym := range p.NodeSymbols[f] {
			buf, ok := nc[f][sym]
			if !ok {
				return restored, fmt.Errorf("symbol %d not restored on node %d", sym, f)
			}
			if !zero(sym) {
				if err := s.writeBlock(path(f, sym), buf); err != nil {
					return restored, err
				}
				restored++
			}
			s.payloadPool.Put(buf)
		}
	}
	return restored, nil
}

// liveBandwidth is plan.Bandwidth() for a stripe whose symbols zero
// names are known zeros: the transfers that still have to move. The
// recovery of a zero symbol needs none, and a transfer whose every
// term is a zero symbol carries a known-zero payload.
func liveBandwidth(plan *core.RepairPlan, zero func(sym int) bool) int {
	need := make([]bool, len(plan.Transfers))
	n := 0
	for _, rec := range plan.Recoveries {
		if zero(rec.Symbol) {
			continue
		}
		for _, ti := range rec.Sources {
			if need[ti] {
				continue
			}
			for _, term := range plan.Transfers[ti].Terms {
				need[ti] = need[ti] || !zero(term.Symbol)
			}
			if need[ti] {
				n++
			}
		}
	}
	return n
}

// FsckReport summarizes an integrity scan.
type FsckReport struct {
	Blocks  int
	Missing int
	Corrupt int
	// Orphans counts block files under the node directories that no
	// manifest entry expects: what a Delete's or a move's best-effort
	// reclamation left behind, or the blocks of an ingest or move that
	// failed (or is still streaming) before its manifest commit. They
	// waste space but no read ever touches them, so they do not make a
	// store unhealthy.
	Orphans int
}

// Healthy reports whether every expected block replica is present and
// checksums clean.
func (r FsckReport) Healthy() bool { return r.Missing == 0 && r.Corrupt == 0 }

// Fsck scans every expected block replica of every file, then counts
// the block files nothing expects.
func (s *Store) Fsck() (FsckReport, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var rep FsckReport
	start := s.obs.now()
	defer func() {
		s.obs.since(hFsck, start)
		s.obs.add(cFsckMissing, int64(rep.Missing))
		s.obs.add(cFsckCorrupt, int64(rep.Corrupt))
		s.obs.add(cFsckOrphans, int64(rep.Orphans))
	}()
	buf := s.payloadPool.Get()
	defer s.payloadPool.Put(buf)
	for _, name := range s.filesLocked() {
		fi := s.manifest.Files[name]
		for ext := range fi.Extents {
			err := s.forEachReplica(name, fi, ext, func(r blockRef, v int) error {
				path := s.extentBlockPath(v, name, fi, ext, r.stripe, r.sym)
				rep.Blocks++
				err := s.readBlockInto(path, buf, 0)
				switch {
				case err == nil:
				case errors.Is(err, ErrCorrupt):
					rep.Corrupt++
				case os.IsNotExist(err):
					rep.Missing++
				default:
					return err
				}
				return nil
			})
			if err != nil {
				return rep, err
			}
		}
	}
	// Expected paths are pairwise distinct, so the orphans are a count,
	// not a path set: every entry under the node directories, less the
	// expected replicas found present.
	onDisk := 0
	if err := s.walkNodeDirs(func(int, string) error { onDisk++; return nil }); err != nil {
		return rep, err
	}
	// (A concurrent heal's quarantine-then-rewrite can take a counted
	// replica away for a moment; never report that as negative.)
	rep.Orphans = max(onDisk-(rep.Blocks-rep.Missing), 0)
	return rep, nil
}

// walkNodeDirs calls fn with the node and name of every entry of every
// node directory, reading each in batches so no store-sized listing is
// ever held; an error from fn stops it and is returned.
func (s *Store) walkNodeDirs(fn func(v int, name string) error) error {
	dirs, err := os.ReadDir(s.root)
	if err != nil {
		return err
	}
	for _, d := range dirs {
		var v int
		if _, err := fmt.Sscanf(d.Name(), "node-%d", &v); err != nil {
			continue
		}
		f, err := os.Open(filepath.Join(s.root, d.Name()))
		if err != nil {
			return err
		}
		for err == nil {
			var names []string
			names, err = f.Readdirnames(1024)
			for i := 0; i < len(names) && err == nil; i++ {
				err = fn(v, names[i])
			}
		}
		f.Close()
		if err != io.EOF {
			return err
		}
	}
	return nil
}
