package core

import "fmt"

// VerifyPlacement checks the structural invariants every code's layout
// must satisfy:
//
//   - SymbolNodes and NodeSymbols are consistent inverses;
//   - no node stores two replicas of the same symbol;
//   - every symbol has at least one replica;
//   - all node indices are within [0, Nodes()).
//
// Register calls it on every code it registers, so no code with a
// broken layout can be constructed by name.
func VerifyPlacement(c Code) error {
	p := c.Placement()
	n := c.Nodes()
	s := c.Symbols()
	if len(p.SymbolNodes) != s {
		return fmt.Errorf("%s: SymbolNodes has %d entries, want %d", c.Name(), len(p.SymbolNodes), s)
	}
	if len(p.NodeSymbols) != n {
		return fmt.Errorf("%s: NodeSymbols has %d entries, want %d", c.Name(), len(p.NodeSymbols), n)
	}
	for sym, nodes := range p.SymbolNodes {
		if len(nodes) == 0 {
			return fmt.Errorf("%s: symbol %d has no replicas", c.Name(), sym)
		}
		seen := make(map[int]bool)
		for _, v := range nodes {
			if v < 0 || v >= n {
				return fmt.Errorf("%s: symbol %d placed on invalid node %d", c.Name(), sym, v)
			}
			if seen[v] {
				return fmt.Errorf("%s: symbol %d has two replicas on node %d", c.Name(), sym, v)
			}
			seen[v] = true
			if !contains(p.NodeSymbols[v], sym) {
				return fmt.Errorf("%s: symbol %d on node %d missing from NodeSymbols", c.Name(), sym, v)
			}
		}
	}
	for v, syms := range p.NodeSymbols {
		seen := make(map[int]bool)
		for _, sym := range syms {
			if sym < 0 || sym >= s {
				return fmt.Errorf("%s: node %d lists invalid symbol %d", c.Name(), v, sym)
			}
			if seen[sym] {
				return fmt.Errorf("%s: node %d lists symbol %d twice", c.Name(), v, sym)
			}
			seen[sym] = true
			if !contains(p.SymbolNodes[sym], v) {
				return fmt.Errorf("%s: node %d holds symbol %d missing from SymbolNodes", c.Name(), v, sym)
			}
		}
	}
	return nil
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
