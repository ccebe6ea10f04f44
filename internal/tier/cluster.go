package tier

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
)

// ClusterTarget is a Target over the simulated cluster
// placement model: files are split into extents, each striped across a
// cluster of Nodes data nodes by cluster.PlaceFile, and a transcode
// re-places an extent under the new code, paying the read-plus-write
// traffic a real RaidNode would — for one extent's blocks, not the
// file's. It backs `repro tier`, where thousands of moves must be
// priced without touching disk.
type ClusterTarget struct {
	Nodes         int
	BlocksPerFile int
	// ExtentBlocks is the extent size in data blocks; 0 places each
	// file as a single extent (whole-file tiering). Set before
	// AddFile.
	ExtentBlocks int

	rng   *rand.Rand
	files map[string]*placedFile
}

type placedFile struct {
	exts []*placedExtent
}

type placedExtent struct {
	codeName      string
	start, blocks int
	file          *cluster.File
	movedAt       float64 // time of the last move, 0 if never
}

// NewClusterTarget returns an empty target over a cluster of nodes
// data nodes, blocksPerFile data blocks per file.
func NewClusterTarget(nodes, blocksPerFile int, rng *rand.Rand) *ClusterTarget {
	return &ClusterTarget{Nodes: nodes, BlocksPerFile: blocksPerFile,
		rng: rng, files: map[string]*placedFile{}}
}

// AddFile places a new file under the named code, split into the
// target's extent-sized runs.
func (t *ClusterTarget) AddFile(name, codeName string) error {
	if _, dup := t.files[name]; dup {
		return fmt.Errorf("tier: file %q already placed", name)
	}
	per := t.ExtentBlocks
	if per <= 0 || per > t.BlocksPerFile {
		per = t.BlocksPerFile
	}
	pf := &placedFile{}
	for start := 0; start < t.BlocksPerFile; start += per {
		n := per
		if start+n > t.BlocksPerFile {
			n = t.BlocksPerFile - start
		}
		pe, err := t.place(codeName, start, n)
		if err != nil {
			return err
		}
		pf.exts = append(pf.exts, pe)
	}
	t.files[name] = pf
	return nil
}

func (t *ClusterTarget) place(codeName string, start, blocks int) (*placedExtent, error) {
	c, err := core.New(codeName)
	if err != nil {
		return nil, err
	}
	f, err := cluster.PlaceFile(c, t.Nodes, blocks, t.rng)
	if err != nil {
		return nil, err
	}
	return &placedExtent{codeName: codeName, start: start, blocks: blocks, file: f}, nil
}

// Files lists placed file names in sorted order.
func (t *ClusterTarget) Files() []string {
	return slices.Sorted(maps.Keys(t.files))
}

// Extents returns a file's extent count.
func (t *ClusterTarget) Extents(name string) int {
	pf, ok := t.files[name]
	if !ok {
		return 0
	}
	return len(pf.exts)
}

// ExtentCode returns one extent's code name and last move time.
func (t *ClusterTarget) ExtentCode(name string, ext int) (string, float64, bool) {
	pf, ok := t.files[name]
	if !ok || ext < 0 || ext >= len(pf.exts) {
		return "", 0, false
	}
	return pf.exts[ext].codeName, pf.exts[ext].movedAt, true
}

// ExtentOf maps a file-global data block to its extent.
func (t *ClusterTarget) ExtentOf(name string, block int) int {
	pf, ok := t.files[name]
	if !ok || block < 0 || block >= t.BlocksPerFile {
		return -1
	}
	for i, pe := range pf.exts {
		if block < pe.start+pe.blocks {
			return i
		}
	}
	return -1
}

// TranscodeExtent re-places one extent under the new code at time at,
// paying only that extent's read-plus-write block bill.
func (t *ClusterTarget) TranscodeExtent(name string, ext int, codeName string, at float64) (int, error) {
	pf, ok := t.files[name]
	if !ok || ext < 0 || ext >= len(pf.exts) {
		return 0, fmt.Errorf("tier: no such extent %q/%d", name, ext)
	}
	pe := pf.exts[ext]
	if pe.codeName == codeName {
		return 0, nil
	}
	moved, err := t.place(codeName, pe.start, pe.blocks)
	if err != nil {
		return 0, err
	}
	moved.movedAt = at
	pf.exts[ext] = moved
	return pe.blocks + physicalBlocks(moved.file), nil
}

// ExtentMoveCost prices one extent's move without re-placing it.
func (t *ClusterTarget) ExtentMoveCost(name string, ext int, codeName string) (int, error) {
	pf, ok := t.files[name]
	if !ok || ext < 0 || ext >= len(pf.exts) {
		return 0, fmt.Errorf("tier: no such extent %q/%d", name, ext)
	}
	pe := pf.exts[ext]
	if pe.codeName == codeName {
		return 0, nil
	}
	c, err := core.New(codeName)
	if err != nil {
		return 0, err
	}
	k := c.DataSymbols()
	stripes := (pe.blocks + k - 1) / k
	return pe.blocks + stripes*c.Placement().TotalBlocks(), nil
}

// physicalBlocks counts the block replicas a placed extent occupies.
func physicalBlocks(f *cluster.File) int {
	return len(f.StripeNodes) * f.Code.Placement().TotalBlocks()
}

// StorageBlocks returns the physical and data block totals across all
// placed files; their ratio is the cluster's current storage overhead.
func (t *ClusterTarget) StorageBlocks() (physical, data int) {
	for _, pf := range t.files {
		for _, pe := range pf.exts {
			physical += physicalBlocks(pe.file)
			data += pe.blocks
		}
	}
	return physical, data
}

// ReadCostAt simulates one locality-scheduled read of the given data
// block of the file while the nodes for which down reports true are
// dead: a map task lands on a live replica holder when one exists
// (local read, zero transfers), otherwise on a random live node that
// must fetch — one block for a surviving remote replica, a partial-
// parity or k-block decode when every replica is gone. It returns the
// network transfers the read cost. The block resolves through the
// extent map, so a read of a promoted hot extent prices against the
// replicated layout even while the rest of the file sits on RS. A
// negative block means "no offset information" and reads a uniformly
// random block.
func (t *ClusterTarget) ReadCostAt(name string, block int, down func(int) bool) (int, error) {
	pf, ok := t.files[name]
	if !ok {
		return 0, fmt.Errorf("tier: no such file %q", name)
	}
	if block < 0 {
		block = t.rng.Intn(t.BlocksPerFile)
	}
	ext := t.ExtentOf(name, block)
	if ext < 0 {
		return 0, fmt.Errorf("tier: no block %d in %q", block, name)
	}
	pe := pf.exts[ext]
	b := pe.file.Blocks[block-pe.start]
	for _, v := range b.Replicas {
		if !down(v) {
			return 0, nil // task scheduled data-local
		}
	}
	var live []int
	for v := 0; v < t.Nodes; v++ {
		if !down(v) {
			live = append(live, v)
		}
	}
	if len(live) == 0 {
		return 0, fmt.Errorf("tier: no live node to read %q from", name)
	}
	at := live[t.rng.Intn(len(live))]
	fetches, local, err := pe.file.ReadPlan(b.ID, down, at)
	if err != nil {
		return 0, err
	}
	if local {
		return 0, nil
	}
	return len(fetches), nil
}
