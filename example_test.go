package hadoopcodes_test

import (
	"bytes"
	"fmt"
	"os"

	hadoopcodes "repro"
)

// The paper's headline repair property: a pentagon stripe that loses
// two nodes is rebuilt with exactly 10 block transfers.
func ExampleCode_repair() {
	code := hadoopcodes.NewPentagon()
	data := make([][]byte, code.DataSymbols())
	for i := range data {
		data[i] = []byte{byte(i), byte(i * 2)}
	}
	symbols, _ := code.Encode(data)
	nodes := hadoopcodes.MaterializeNodes(code, symbols)
	nodes.Erase(0, 1)

	plan, _ := code.PlanRepair([]int{0, 1})
	fmt.Println("repair bandwidth:", plan.Bandwidth(), "blocks")
	err := hadoopcodes.ExecuteRepair(nodes, plan, 2)
	fmt.Println("repair error:", err)
	// Output:
	// repair bandwidth: 10 blocks
	// repair error: <nil>
}

// Degraded reads cost n-2 partial parities for the pentagon versus m
// whole blocks for RAID+m (paper Section 3.1).
func ExampleReadPlanner() {
	pent := hadoopcodes.NewPentagon()
	raidm := hadoopcodes.NewRAIDM(9)

	p1, _ := pent.PlanRead(0, pent.Placement().SymbolNodes[0], hadoopcodes.OffCluster)
	p2, _ := raidm.PlanRead(0, raidm.Placement().SymbolNodes[0], hadoopcodes.OffCluster)
	fmt.Println("pentagon degraded read:", p1.Bandwidth(), "blocks")
	fmt.Println("RAID+m degraded read:", p2.Bandwidth(), "blocks")
	// Output:
	// pentagon degraded read: 3 blocks
	// RAID+m degraded read: 9 blocks
}

// Storage overheads of Table 1.
func ExampleStorageOverhead() {
	for _, name := range []string{"3-rep", "pentagon", "heptagon", "heptagon-local"} {
		c, _ := hadoopcodes.New(name)
		fmt.Printf("%s: %.2fx\n", c.Name(), hadoopcodes.StorageOverhead(c))
	}
	// Output:
	// 3-rep: 3.00x
	// pentagon: 2.22x
	// heptagon: 2.10x
	// heptagon-local: 2.15x
}

// Hot/cold tiering by extent: reads of a file's head promote just that
// extent to the pentagon code while the tail stays on RS(14,10); hours
// later the daemon finds the head cold again and demotes it.
func ExampleNewTierDaemon() {
	dir, _ := os.MkdirTemp("", "tiering")
	defer os.RemoveAll(dir)

	// 10 data blocks per extent; 0 = whole-file extents.
	s, _ := hadoopcodes.CreateStoreExt(dir, "rs-14-10", 4096, 10)
	data := bytes.Repeat([]byte("cold tail, hot head "), 4096) // 20 blocks: 2 extents
	s.Put("f", data)

	tr := hadoopcodes.NewHeatTracker(3600) // halve heat every hour
	// The daemon scans on an interval under a byte budget: Start/Stop
	// on the wall clock, or Tick on a virtual one as here.
	d, _ := hadoopcodes.NewTierDaemon(s, hadoopcodes.TierPolicy{
		HotCode: "pentagon", ColdCode: "rs-14-10",
		PromoteAt: 5, DemoteAt: 1, // hysteresis band
	}, tr, hadoopcodes.TierDaemonConfig{
		Interval: 30, BytesPerSec: 200e6, BlockBytes: 4096,
	})
	now := 0.0 // seconds
	s.OnReadExtent = func(name string, ext int) { tr.TouchExtent(name, ext, now) }
	head := make([]byte, 4096)
	for i := 0; i < 6; i++ {
		s.ReadAt(head, "f", 0) // heats extent 0 only
	}
	for _, now = range []float64{0, 4 * 3600} {
		moves, _ := d.Tick(now) // promote hot extents, demote cold ones
		for _, mv := range moves {
			fmt.Printf("t=%gh: %s extent %d %s -> %s\n", now/3600, mv.Name, mv.Ext, mv.From, mv.To)
		}
	}
	back, _ := s.Get("f")
	fmt.Println("bytes unchanged:", bytes.Equal(back, data))
	// Output:
	// t=0h: f extent 0 rs-14-10 -> pentagon
	// t=4h: f extent 0 pentagon -> rs-14-10
	// bytes unchanged: true
}
