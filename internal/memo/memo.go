// Package memo is the serving-cache primitive: a byte-capacity-bounded LRU
// behind one mutex whose entries are keyed (canonical key, model version). It
// backs the two serving tiers only — the wire tier of `pka serve` and the
// engine tier a model arms with EnableCache.
//
// The version is the invalidation mechanism. Every engine swap bumps the
// model's monotonic version, so a cached answer is valid exactly when its
// recorded version equals the version the caller read before answering.
// A Get with a newer version treats the stale entry as a miss and deletes
// it eagerly; stale versions that are never probed again simply age out
// under LRU pressure. No flush coordination, no epoch fences.
//
// Values stored in the cache are published to concurrent readers and must
// never be mutated after Put — return copies or treat them as frozen
// (enforced repo-wide by pkalint's memoimmut analyzer).
package memo

import (
	"sync"
)

// entryOverhead approximates the bookkeeping bytes per entry (map cell,
// entry struct, interface header) so tiny values still count toward the
// byte budget.
const entryOverhead = 96

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Capacity  int64 `json:"capacity"`
}

// entry is one cached value on an intrusive LRU list.
type entry struct {
	key        string
	version    int64
	value      any
	cost       int64
	prev, next *entry
}

// Cache is an LRU bounded by total byte capacity: a map for lookup plus a
// circular intrusive list rooted at root for recency order (root.next =
// most recent), all under one mutex. The zero value is not usable;
// construct with New. A nil *Cache is a valid "disabled" cache: Get always
// misses and Put is a no-op.
type Cache struct {
	capacity  int64 // byte budget; <=0 means unbounded
	mu        sync.Mutex
	m         map[string]*entry
	root      entry
	bytes     int64
	hits      int64
	misses    int64
	evictions int64
}

// New returns a cache bounded to capacityBytes. capacityBytes <= 0 means
// unbounded — entries are only removed by version mismatch.
func New(capacityBytes int64) *Cache {
	c := &Cache{capacity: capacityBytes, m: make(map[string]*entry)}
	c.root.prev = &c.root
	c.root.next = &c.root
	return c
}

func (c *Cache) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *Cache) pushFront(e *entry) {
	e.prev = &c.root
	e.next = c.root.next
	c.root.next.prev = e
	c.root.next = e
}

func (c *Cache) remove(e *entry) {
	c.unlink(e)
	delete(c.m, e.key)
	c.bytes -= e.cost
}

// Get returns the value cached under key at exactly the given version.
// A key present at a different version is deleted on the spot (counted
// as an eviction) and reported as a miss: the engine it was computed
// against has been swapped out, so the bytes will never be valid again.
func (c *Cache) Get(key []byte, version int64) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	e, ok := c.m[string(key)] // no-copy map probe
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	if e.version != version {
		c.remove(e)
		c.evictions++
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.unlink(e)
	c.pushFront(e)
	c.hits++
	v := e.value
	c.mu.Unlock()
	return v, true
}

// Put caches value under (key, version). cost is the caller's estimate of
// the value's size in bytes; the key length and a fixed overhead are added
// on top. An existing entry for the key is overwritten (whatever its
// version). A value larger than the whole budget is not cached at all.
func (c *Cache) Put(key []byte, version int64, value any, cost int64) {
	if c == nil {
		return
	}
	total := cost + int64(len(key)) + entryOverhead
	if c.capacity > 0 && total > c.capacity {
		return
	}
	c.mu.Lock()
	if e, ok := c.m[string(key)]; ok {
		c.bytes += total - e.cost
		e.cost = total
		e.version = version
		e.value = value
		c.unlink(e)
		c.pushFront(e)
	} else {
		e := &entry{key: string(key), version: version, value: value, cost: total}
		c.m[e.key] = e
		c.pushFront(e)
		c.bytes += total
	}
	// The newest entry fits the budget alone, so eviction from the cold
	// end stops before it reaches the front.
	for c.capacity > 0 && c.bytes > c.capacity {
		c.remove(c.root.prev)
		c.evictions++
	}
	c.mu.Unlock()
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   int64(len(c.m)),
		Bytes:     c.bytes,
		Capacity:  c.capacity,
	}
}
