// Package memo is the serving-cache primitive: a sharded, byte-capacity-
// bounded LRU whose entries are keyed (canonical key, model version). It
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

// numShards spreads lock contention; keys are distributed by FNV-1a.
// Must be a power of two.
const numShards = 16

// entryOverhead approximates the bookkeeping bytes per entry (map cell,
// entry struct, interface header) so tiny values still count toward the
// byte budget.
const entryOverhead = 96

// Stats is a point-in-time snapshot of cache effectiveness counters,
// summed across shards.
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

// shard is one lock domain: a map for lookup plus a circular intrusive
// list rooted at root for recency order (root.next = most recent).
type shard struct {
	mu        sync.Mutex
	m         map[string]*entry
	root      entry
	bytes     int64
	hits      int64
	misses    int64
	evictions int64
}

func (s *shard) init() {
	s.m = make(map[string]*entry)
	s.root.prev = &s.root
	s.root.next = &s.root
}

func (s *shard) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (s *shard) pushFront(e *entry) {
	e.prev = &s.root
	e.next = s.root.next
	s.root.next.prev = e
	s.root.next = e
}

func (s *shard) remove(e *entry) {
	s.unlink(e)
	delete(s.m, e.key)
	s.bytes -= e.cost
}

// Cache is a sharded LRU bounded by total byte capacity. The zero value
// is not usable; construct with New. A nil *Cache is a valid "disabled"
// cache: Get always misses and Put is a no-op.
type Cache struct {
	capacity int64 // total budget; <=0 means unbounded
	perShard int64 // capacity/numShards; 0 when unbounded
	shards   [numShards]shard
}

// New returns a cache bounded to roughly capacityBytes across all shards
// (each shard holds capacity/numShards). capacityBytes <= 0 means
// unbounded — entries are only removed by version mismatch.
func New(capacityBytes int64) *Cache {
	c := &Cache{capacity: capacityBytes}
	if capacityBytes > 0 {
		c.perShard = capacityBytes / numShards
		if c.perShard < 1 {
			c.perShard = 1
		}
	}
	for i := range c.shards {
		c.shards[i].init()
	}
	return c
}

// shardFor picks the shard by FNV-1a over the key.
func (c *Cache) shardFor(key []byte) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return &c.shards[h&(numShards-1)]
}

// Get returns the value cached under key at exactly the given version.
// A key present at a different version is deleted on the spot (counted
// as an eviction) and reported as a miss: the engine it was computed
// against has been swapped out, so the bytes will never be valid again.
func (c *Cache) Get(key []byte, version int64) (any, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := s.m[string(key)] // no-copy map probe
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	if e.version != version {
		s.remove(e)
		s.evictions++
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.unlink(e)
	s.pushFront(e)
	s.hits++
	v := e.value
	s.mu.Unlock()
	return v, true
}

// Put caches value under (key, version). cost is the caller's estimate of
// the value's size in bytes; the key length and a fixed overhead are added
// on top. An existing entry for the key is overwritten (whatever its
// version). A value too large for one shard's budget is not cached at all.
func (c *Cache) Put(key []byte, version int64, value any, cost int64) {
	if c == nil {
		return
	}
	total := cost + int64(len(key)) + entryOverhead
	if c.perShard > 0 && total > c.perShard {
		return
	}
	s := c.shardFor(key)
	s.mu.Lock()
	if e, ok := s.m[string(key)]; ok {
		s.bytes += total - e.cost
		e.cost = total
		e.version = version
		e.value = value
		s.unlink(e)
		s.pushFront(e)
	} else {
		e := &entry{key: string(key), version: version, value: value, cost: total}
		s.m[e.key] = e
		s.pushFront(e)
		s.bytes += total
	}
	for c.perShard > 0 && s.bytes > c.perShard {
		tail := s.root.prev
		if tail == &s.root {
			break
		}
		s.remove(tail)
		s.evictions++
	}
	s.mu.Unlock()
}

// Stats sums the per-shard counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	var st Stats
	st.Capacity = c.capacity
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Entries += int64(len(s.m))
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}
