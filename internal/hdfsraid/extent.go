package hdfsraid

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Extent is one contiguous run of a file's data blocks, striped and
// coded independently of its neighbors: the unit of tiering. A file is
// a sequence of extents covering data blocks [Start, Start+Blocks) in
// order; each extent carries its own code and stripe set, so a hot
// region of a large cold file can sit on a double-replication code
// while the rest stays on RS. Extent boundaries are fixed at ingest
// (Put splits files into store-configured extent-sized runs) and never
// move — a transcode changes an extent's code, stripe count and
// generation, never its data-block range.
type Extent struct {
	// Start is the extent's first data block, file-global.
	Start int `json:"start"`
	// Blocks is the number of data blocks the extent covers.
	Blocks int `json:"blocks"`
	// Stripes is the extent's stripe count under Code at the store
	// block size: ceil(Blocks / k).
	Stripes int `json:"stripes"`
	// Code is the extent's coding scheme; empty means the store
	// default.
	Code string `json:"code,omitempty"`
	// Gen is the layout generation: 0 as ingested, one more after every
	// move. It is part of every block's name (see blockName), so the
	// layout a move writes never shares a path with the one it replaces.
	Gen int `json:"gen,omitempty"`
	// Moved is the clock time of the extent's last tiering move (see
	// TranscodeExtentAt), 0 if none: the tiering policy's dwell.
	Moved float64 `json:"moved,omitempty"`
}

// stripesFor returns the stripes needed for blocks data blocks under a
// code with k data symbols.
func stripesFor(blocks, k int) int {
	if blocks <= 0 {
		return 0
	}
	return (blocks + k - 1) / k
}

// zeroSymbol reports whether symbol sym of the extent's stripe is a
// known zero: a data symbol past the extent's last data block, which
// only the (shortened) tail stripe has. No replica of such a symbol
// exists — it is never written, placed, read, scrubbed or repaired,
// and every consumer takes its content from the store's shared zero
// block. To the codes it is simply a present symbol.
func (e Extent) zeroSymbol(k, stripe, sym int) bool {
	return sym < k && stripe*k+sym >= e.Blocks
}

// dataBlocks returns the data blocks a length-byte file occupies at
// the store's block size.
func (s *Store) dataBlocks(length int) int {
	return (length + s.blockSize - 1) / s.blockSize
}

// buildExtents splits a length-byte file into the store's ingest
// extents: ExtentBlocks-sized runs under the default code (a trailing
// partial run keeps the remainder), or one extent covering the whole
// file when extents are disabled (ExtentBlocks <= 0).
func (s *Store) buildExtents(length int) []Extent {
	blocks := s.dataBlocks(length)
	k := s.code.DataSymbols()
	per := s.extentBlocks
	if per <= 0 || blocks <= per {
		return []Extent{{Start: 0, Blocks: blocks, Stripes: stripesFor(blocks, k)}}
	}
	exts := make([]Extent, 0, (blocks+per-1)/per)
	for start := 0; start < blocks; start += per {
		n := per
		if start+n > blocks {
			n = blocks - start
		}
		exts = append(exts, Extent{Start: start, Blocks: n, Stripes: stripesFor(n, k)})
	}
	return exts
}

// refreshSummary recomputes fi's summary fields from its extent map:
// Stripes is the total across extents, and Code mirrors the extent
// code for single-extent files.
func refreshSummary(fi *FileInfo) {
	total := 0
	for _, e := range fi.Extents {
		total += e.Stripes
	}
	fi.Stripes = total
	if len(fi.Extents) == 1 {
		fi.Code = fi.Extents[0].Code
	} else {
		fi.Code = ""
	}
}

// validateExtents checks that a file's extent map tiles its data
// blocks exactly, with consistent stripe counts, and that every extent
// code is registered.
func (s *Store) validateExtents(name string, fi FileInfo) error {
	if len(fi.Extents) == 0 {
		return fmt.Errorf("hdfsraid: file %q has no extents", name)
	}
	next, totalStripes := 0, 0
	for i, e := range fi.Extents {
		if e.Start != next || (e.Blocks <= 0 && fi.Length > 0) {
			return fmt.Errorf("hdfsraid: file %q extent %d does not tile (start %d, want %d)", name, i, e.Start, next)
		}
		cc, err := s.codecByName(e.Code)
		if err != nil {
			return fmt.Errorf("hdfsraid: file %q extent %d: %w", name, i, err)
		}
		if want := stripesFor(e.Blocks, cc.DataSymbols()); e.Stripes != want || e.Gen < 0 {
			return fmt.Errorf("hdfsraid: file %q extent %d has %d stripes at generation %d, want %d", name, i, e.Stripes, e.Gen, want)
		}
		next = e.Start + e.Blocks
		totalStripes += e.Stripes
	}
	if want := s.dataBlocks(fi.Length); next != want {
		return fmt.Errorf("hdfsraid: file %q extents cover %d blocks, want %d", name, next, want)
	}
	if fi.Stripes != totalStripes {
		return fmt.Errorf("hdfsraid: file %q summary has %d stripes, extents total %d", name, fi.Stripes, totalStripes)
	}
	return nil
}

// blockName names one block replica's file inside its node directory:
// name.<stripe>.<symbol> for a file of a store created without extents,
// name.x<ext>.<stripe>.<symbol> when the file's blocks are extent-
// qualified (FileInfo.ExtentPaths, fixed per file at ingest), and
// either with .g<gen> appended once the extent has moved (gen >= 1;
// generation 0 is the bare name every store has always used). Given the
// style, parseBlockName inverts it, so two replicas never share a name.
func blockName(name string, extPaths bool, ext, gen, stripe, sym int) string {
	b := append(make([]byte, 0, len(name)+32), name...)
	if extPaths {
		b = strconv.AppendInt(append(b, ".x"...), int64(ext), 10)
	}
	b = strconv.AppendInt(append(b, '.'), int64(stripe), 10)
	b = strconv.AppendInt(append(b, '.'), int64(sym), 10)
	if gen > 0 {
		b = strconv.AppendInt(append(b, ".g"...), int64(gen), 10)
	}
	return string(b)
}

// parseBlockName is blockName's inverse for one naming style; ok is
// false for anything blockName does not produce under that style.
func parseBlockName(base string, extPaths bool) (name string, ext, gen, stripe, sym int, ok bool) {
	// cut peels a trailing ".<prefix><n>" off base, n in the canonical
	// decimal form blockName writes.
	cut := func(prefix string) (int, bool) {
		i := strings.LastIndexByte(base, '.')
		digits, found := strings.CutPrefix(base[i+1:], prefix)
		n, err := strconv.Atoi(digits)
		if i < 0 || !found || err != nil || n < 0 || strconv.Itoa(n) != digits {
			return 0, false
		}
		base = base[:i]
		return n, true
	}
	if gen, ok = cut("g"); ok && gen == 0 {
		return "", 0, 0, 0, 0, false
	}
	if sym, ok = cut(""); ok {
		stripe, ok = cut("")
	}
	if ok && extPaths {
		ext, ok = cut("x")
	}
	return base, ext, gen, stripe, sym, ok && base != ""
}

// extentBlockPath is the path of the replica of one symbol of one
// stripe of an extent on node v, under the extent's current generation.
func (s *Store) extentBlockPath(v int, name string, fi FileInfo, ext, stripe, sym int) string {
	return filepath.Join(s.nodeDir(v), blockName(name, fi.ExtentPaths, ext, fi.Extents[ext].Gen, stripe, sym))
}

// extentOf returns the index of the extent containing file-global data
// block g. Caller guarantees g is within the file's data blocks.
func extentOf(fi FileInfo, g int) int {
	return sort.Search(len(fi.Extents), func(i int) bool {
		e := fi.Extents[i]
		return g < e.Start+e.Blocks
	})
}

// locateStripe maps a file-global stripe index — extent stripe sets
// are concatenated in extent order — to its extent and extent-local
// stripe. ok is false for an index outside the file, including one the
// summary Stripes field admits but the extents do not (a hand-edited
// or corrupt manifest), so callers error instead of panicking.
func locateStripe(fi FileInfo, stripe int) (ext, local int, ok bool) {
	if stripe < 0 {
		return 0, 0, false
	}
	for ext, e := range fi.Extents {
		if stripe < e.Stripes {
			return ext, stripe, true
		}
		stripe -= e.Stripes
	}
	return 0, 0, false
}

// blockRef is the scan-order coordinate of one physical block replica:
// rep indexes the symbol's replica list in the code's placement, from
// which the node (and so the path) follows.
type blockRef struct {
	name                  string
	ext, stripe, sym, rep int
}

// forEachReplica calls fn for every block replica the layout of one
// extent of a file expects — each stripe's every stored symbol's every
// placement node v (known-zero symbols have no replicas) — in scan
// order (stripe, symbol, replica). It is the one walk behind Fsck,
// Scrub and reclaim; an error from fn stops it and is returned.
func (s *Store) forEachReplica(name string, fi FileInfo, ext int, fn func(r blockRef, v int) error) error {
	e := fi.Extents[ext]
	cc, err := s.codecByName(e.Code)
	if err != nil {
		return err
	}
	k, symbolNodes := cc.DataSymbols(), cc.Placement().SymbolNodes
	for i := 0; i < e.Stripes; i++ {
		for sym, nodes := range symbolNodes {
			if e.zeroSymbol(k, i, sym) {
				continue
			}
			for rep, v := range nodes {
				if err := fn(blockRef{name, ext, i, sym, rep}, v); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Extents returns a copy of a file's extent map.
func (s *Store) Extents(name string) ([]Extent, bool) {
	fi, ok := s.Info(name)
	return append([]Extent(nil), fi.Extents...), ok
}

// ExtentOf returns the index of the extent holding the file's data
// block, or -1 when the file or block is unknown.
func (s *Store) ExtentOf(name string, block int) int {
	fi, ok := s.Info(name)
	if !ok || block < 0 || block >= s.dataBlocks(fi.Length) {
		return -1
	}
	return extentOf(fi, block)
}

// ExtentCode returns the effective code name of one extent of a file.
func (s *Store) ExtentCode(name string, ext int) (string, bool) {
	fi, ok := s.Info(name)
	if !ok || ext < 0 || ext >= len(fi.Extents) {
		return "", false
	}
	if c := fi.Extents[ext].Code; c != "" {
		return c, true
	}
	return s.codeName, true
}
