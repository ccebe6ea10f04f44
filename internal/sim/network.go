package sim

import (
	"fmt"
	"math"
)

// Network models a single-rack LAN: every node has a full-duplex NIC of
// fixed bandwidth, and a transfer from a to b is serialized FIFO first
// through a's uplink and then through b's downlink (store-and-forward).
// Local "transfers" (a == b) complete immediately and move no network
// bytes.
//
// Total bytes moved are accounted for the paper's network-traffic
// metric (Figs. 4 and 5).
type Network struct {
	eng       *Engine
	bandwidth float64 // bytes per second per NIC direction
	upFree    []float64
	downFree  []float64
	total     float64
	transfers int
}

// NewNetwork returns a network of n nodes with the given per-NIC
// bandwidth in bytes/second.
func NewNetwork(eng *Engine, n int, bandwidth float64) *Network {
	if bandwidth <= 0 {
		panic(fmt.Sprintf("sim: invalid bandwidth %v", bandwidth))
	}
	return &Network{
		eng:       eng,
		bandwidth: bandwidth,
		upFree:    make([]float64, n),
		downFree:  make([]float64, n),
	}
}

// Transfer moves bytes from node `from` to node `to`, invoking done
// when the last byte arrives. from == to completes at the next event
// cycle without network cost. A negative node index (an off-cluster
// endpoint) is treated as unconstrained on that side.
func (nw *Network) Transfer(from, to int, bytes float64, done func()) {
	if bytes < 0 {
		panic(fmt.Sprintf("sim: negative transfer size %v", bytes))
	}
	if from == to {
		nw.eng.After(0, done)
		return
	}
	now := nw.eng.Now()
	dur := bytes / nw.bandwidth

	start := now
	if from >= 0 {
		if nw.upFree[from] > start {
			start = nw.upFree[from]
		}
		nw.upFree[from] = start + dur
	}
	endUp := start + dur

	startDown := endUp
	if to >= 0 {
		if nw.downFree[to] > startDown {
			startDown = nw.downFree[to]
		}
		nw.downFree[to] = startDown + dur
	}
	endDown := startDown + dur

	nw.total += bytes
	nw.transfers++
	nw.eng.At(endDown, done)
}

// TransferChunked moves bytes from node `from` to node `to` as a
// stream of chunkBytes-sized transfers, all injected now and queued back
// to back on the NICs, so a bulk move (a tier transcode, a rebuild)
// occupies them chunk by chunk. done fires when the last chunk arrives;
// chunkBytes <= 0 sends one chunk.
func (nw *Network) TransferChunked(from, to int, bytes, chunkBytes float64, done func()) {
	if bytes < 0 {
		panic(fmt.Sprintf("sim: negative transfer size %v", bytes))
	}
	if bytes == 0 {
		nw.eng.After(0, done)
		return
	}
	if chunkBytes <= 0 || chunkBytes > bytes {
		chunkBytes = bytes
	}
	chunks := int(math.Ceil(bytes / chunkBytes))
	remaining := chunks
	for i := 0; i < chunks; i++ {
		size := chunkBytes
		if i == chunks-1 {
			size = bytes - chunkBytes*float64(chunks-1)
		}
		nw.eng.After(0, func() {
			nw.Transfer(from, to, size, func() {
				if remaining--; remaining == 0 {
					done()
				}
			})
		})
	}
}

// TotalBytes returns the bytes moved across the network so far.
func (nw *Network) TotalBytes() float64 { return nw.total }

// Transfers returns the number of non-local transfers so far.
func (nw *Network) Transfers() int { return nw.transfers }
