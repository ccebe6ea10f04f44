package hadoopcodes

import (
	"repro/internal/code/rs"
	"repro/internal/hdfsraid"
)

// NewRS returns the systematic (n, k) Reed-Solomon code — the cold-data
// baseline from the paper's introduction (Facebook's HDFS-RAID uses
// (14,10)). RS stores a single copy per symbol: 1.4x overhead, but no
// data locality and k-block repairs.
func NewRS(n, k int) *rs.Code { return rs.New(n, k) }

// Store is a miniature on-disk HDFS-RAID: files striped by any
// registered code across per-node directories, with kill/repair/fsck
// operations. See the hdfscli command for an interactive front end.
type Store = hdfsraid.Store

// StoreRepairReport summarizes a store repair run.
type StoreRepairReport = hdfsraid.RepairReport

// StoreFsckReport summarizes a store integrity scan.
type StoreFsckReport = hdfsraid.FsckReport

// StoreExtent is one independently striped, independently tiered run
// of a stored file's data blocks — the unit of partial-file tiering.
type StoreExtent = hdfsraid.Extent

// CreateStore initializes an on-disk store at root using the named
// registered code, storing each file as a single extent.
func CreateStore(root, codeName string, blockSize int) (*Store, error) {
	return hdfsraid.Create(root, codeName, blockSize)
}

// CreateStoreExt initializes an on-disk store whose files are split
// into extentBlocks-sized extents, each striped and tiered
// independently, so a hot region of a large file can sit on a
// replicated code while the rest stays on RS.
func CreateStoreExt(root, codeName string, blockSize, extentBlocks int) (*Store, error) {
	return hdfsraid.CreateExt(root, codeName, blockSize, extentBlocks)
}

// OpenStore loads an existing on-disk store: the manifest snapshot
// plus its log, with any transcode a crash left mid-flight recovered.
func OpenStore(root string) (*Store, error) { return hdfsraid.Open(root) }
