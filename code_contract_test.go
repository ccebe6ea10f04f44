package hadoopcodes

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/core"
)

// FuzzCodeRoundTrip checks the core.Code contract of every registered
// code on fuzzed data and up to FaultTolerance() fuzzed node erasures:
// core.Encode and the pooled core.EncodeWith agree byte for byte,
// Decode restores the data, ExecuteRepair of PlanRepair restores every
// replica, and ExecuteRead of PlanRead returns data symbol 0 (or the
// plan is refused past two erasures, as heptagon-local does). pick
// chooses the code; erase's low byte how many nodes to erase, and each
// byte above it one node.
func FuzzCodeRoundTrip(f *testing.F) {
	names := core.Names()
	for i := range names {
		f.Add([]byte("seed data for the code contract fuzzer"), uint8(i), uint64(0))
		f.Add(bytes.Repeat([]byte{0xA5}, 300), uint8(i), uint64(0x0201_00ff))
		f.Add([]byte{}, uint8(i), uint64(0x0d_0400_0003))
	}
	f.Fuzz(func(t *testing.T, data []byte, pick uint8, erase uint64) {
		const blockSize = 8
		c, err := core.New(names[int(pick)%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		k, n := c.DataSymbols(), c.Nodes()
		blocks := make([][]byte, k)
		for i := range blocks {
			blocks[i] = make([]byte, blockSize)
			if off := i * blockSize; off < len(data) {
				copy(blocks[i], data[off:])
			}
		}
		symbols, err := core.Encode(c, blocks)
		if err != nil {
			t.Fatal(err)
		}
		pooled, release, err := core.EncodeWith(c, core.NewBlockPool(blockSize), blocks)
		if err != nil {
			t.Fatal(err)
		}
		for s := range symbols {
			if !bytes.Equal(pooled[s], symbols[s]) {
				t.Fatalf("%s: Encode and EncodeWith differ at symbol %d", c.Name(), s)
			}
		}
		release()

		var failed []int
		for e, want := erase>>8, int(erase%256)%(c.FaultTolerance()+1); len(failed) < want && e != 0; e >>= 8 {
			if v := int(e%256) % n; !slices.Contains(failed, v) {
				failed = append(failed, v)
			}
		}
		nc := core.MaterializeNodes(c, symbols)
		nc.Erase(failed...)
		decoded, err := c.Decode(nc.Available(c.Symbols()))
		if err != nil {
			t.Fatalf("%s: decode after erasing %v: %v", c.Name(), failed, err)
		}
		for i := range blocks {
			if !bytes.Equal(decoded[i], blocks[i]) {
				t.Fatalf("%s: data block %d wrong after erasing %v", c.Name(), i, failed)
			}
		}

		// Heptagon-local leaves a read around three failures in one
		// heptagon to the full decode: an *ErasureError past two.
		var erasure *core.ErasureError
		read, err := c.PlanRead(0, failed, core.OffCluster)
		if err != nil && (len(failed) <= 2 || !errors.As(err, &erasure)) {
			t.Fatalf("%s: read plan around %v: %v", c.Name(), failed, err)
		}
		if err == nil {
			got, err := core.ExecuteRead(nc, read, core.OffCluster, blockSize)
			if err != nil || !bytes.Equal(got, blocks[0]) {
				t.Fatalf("%s: read of symbol 0 around %v: %v", c.Name(), failed, err)
			}
		}

		repair, err := c.PlanRepair(failed)
		if err != nil {
			t.Fatalf("%s: repair plan for %v: %v", c.Name(), failed, err)
		}
		if err := core.ExecuteRepair(nc, repair, blockSize); err != nil {
			t.Fatalf("%s: repair of %v: %v", c.Name(), failed, err)
		}
		for v, syms := range c.Placement().NodeSymbols {
			for _, s := range syms {
				if !bytes.Equal(nc[v][s], symbols[s]) {
					t.Fatalf("%s: node %d symbol %d wrong after repairing %v", c.Name(), v, s, failed)
				}
			}
		}
	})
}

// TestCodeEncodeRejectsBadInput: for every code, core.Encode and the
// pooled core.EncodeWith refuse a wrong block count, a nil block and
// unequal block sizes, and EncodeWith a pool of another block size,
// with an error rather than a panic or a wrong stripe.
func TestCodeEncodeRejectsBadInput(t *testing.T) {
	const blockSize = 8
	for _, name := range core.Names() {
		c, err := core.New(name)
		if err != nil {
			t.Fatal(err)
		}
		k := c.DataSymbols()
		stripe := func() [][]byte {
			blocks := make([][]byte, k)
			for i := range blocks {
				blocks[i] = make([]byte, blockSize)
			}
			return blocks
		}
		nilBlock, unequal := stripe(), stripe()
		nilBlock[k-1] = nil
		unequal[k-1] = unequal[k-1][1:]
		cases := map[string][][]byte{
			"one block too many": append(stripe(), make([]byte, blockSize)),
			"nil block":          nilBlock,
		}
		if k > 1 { // one block is never of unequal size
			cases["unequal sizes"] = unequal
		}
		for what, data := range cases {
			if _, err := core.Encode(c, data); err == nil {
				t.Errorf("%s: Encode accepted %s", name, what)
			}
			if _, _, err := core.EncodeWith(c, core.NewBlockPool(blockSize), data); err == nil {
				t.Errorf("%s: EncodeWith accepted %s", name, what)
			}
		}
		if _, _, err := core.EncodeWith(c, core.NewBlockPool(2*blockSize), stripe()); err == nil {
			t.Errorf("%s: EncodeWith accepted a pool of another block size", name)
		}
	}
}
