// Package loadgen holds Content, the deterministic payload of a named
// file. The benchmark (bench/) builds every workload's dataset from it,
// so any reader can verify any read from the name and length alone.
package loadgen

import "math/rand"

// Content returns n bytes that are a pure function of name and n.
func Content(name string, n int) []byte {
	seed := int64(0)
	for _, b := range []byte(name) {
		seed = seed*131 + int64(b)
	}
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, n)
	rng.Read(data)
	return data
}
