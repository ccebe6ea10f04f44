package hadoopcodes

import "repro/internal/hdfsraid"

// Store is a miniature on-disk HDFS-RAID: files striped by any
// registered code across per-node directories, with kill/repair/fsck
// operations. See the hdfscli command for an interactive front end.
type Store = hdfsraid.Store

// CreateStoreExt initializes an on-disk store whose files are split
// into extentBlocks-sized extents, each striped and tiered
// independently, so a hot region of a large file can sit on a
// replicated code while the rest stays on RS. extentBlocks 0 stores
// each file as a single extent.
func CreateStoreExt(root, codeName string, blockSize, extentBlocks int) (*Store, error) {
	return hdfsraid.CreateExt(root, codeName, blockSize, extentBlocks)
}
