package hdfsraid

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// fileIDs numbers file-table entries process-wide (Manifest.ids): no
// two entries this process ever loads or puts, in any store, share one.
var fileIDs atomic.Uint64

// extentKey names the bytes of one extent of one file-table entry. They
// never change: an entry's bytes are fixed at its put, a transcode
// keeps bytes and identity, a re-put of the name is a new entry. So a
// cached extent is never invalidated, only orphaned (its identity
// retired), then dropped or aged out.
type extentKey struct {
	id  uint64 // Manifest.ids[name]; 0 (an entry without one) is never cached
	ext int
}

// ReadCache is a byte-capped LRU of verified, decoded extents, shared
// by any number of stores (Store.SetReadCache). It decides nothing
// about correctness: a store consults it only after its usual lookup
// and admission under mu, with the identity it just looked up, and
// offers it only extents its heat says were read before (see
// Store.Heat). An extent over an eighth of the budget is never taken. A
// nil *ReadCache holds nothing.
type ReadCache struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	lru     *list.List // of *cacheEntry, most recently used first
	entries map[extentKey]*list.Element
}

type cacheEntry struct {
	key  extentKey
	data []byte
}

// NewReadCache returns a cache of at most maxBytes of extent bytes, or
// nil — no cache — when maxBytes is not positive.
func NewReadCache(maxBytes int64) *ReadCache {
	if maxBytes <= 0 {
		return nil
	}
	return &ReadCache{max: maxBytes, lru: list.New(), entries: map[extentKey]*list.Element{}}
}

// Bytes returns the extent bytes held right now.
func (c *ReadCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// get returns the extent's bytes (not to be modified), or nil.
func (c *ReadCache) get(k extentKey) []byte {
	if c == nil || k.id == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).data
}

// admit is the offer of an extent a read just produced whole; it
// reports whether add should follow.
func (c *ReadCache) admit(k extentKey, size int64) bool {
	if c == nil || k.id == 0 || size == 0 || size > c.max/8 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, held := c.entries[k]
	return !held
}

// add takes ownership of data, an admitted extent's bytes, and returns
// how many entries it evicted to stay inside the budget.
func (c *ReadCache) add(k extentKey, data []byte) (evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, held := c.entries[k]; held {
		return 0 // a racing read filled it first
	}
	c.entries[k] = c.lru.PushFront(&cacheEntry{k, data})
	for c.bytes += int64(len(data)); c.bytes > c.max; evicted++ {
		c.remove(c.lru.Back())
	}
	return evicted
}

// drop forgets extents [0, exts) of a retired identity.
func (c *ReadCache) drop(id uint64, exts int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for ext := 0; ext < exts; ext++ {
		if el, ok := c.entries[extentKey{id, ext}]; ok {
			c.remove(el)
		}
	}
}

// remove unlinks one entry. Caller holds mu.
func (c *ReadCache) remove(el *list.Element) {
	e := c.lru.Remove(el).(*cacheEntry)
	delete(c.entries, e.key)
	c.bytes -= int64(len(e.data))
}
