package memo

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPutRoundTrip(t *testing.T) {
	c := New(1 << 20)
	if _, ok := c.Get([]byte("k"), 1); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put([]byte("k"), 1, "value", 5)
	v, ok := c.Get([]byte("k"), 1)
	if !ok || v.(string) != "value" {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Bytes != 5+1+entryOverhead {
		t.Errorf("bytes = %d, want %d", st.Bytes, 5+1+entryOverhead)
	}
}

// TestVersionMismatchEvicts: an entry probed at a newer version is a miss
// and is deleted on the spot — the engine it was computed against is gone.
func TestVersionMismatchEvicts(t *testing.T) {
	c := New(1 << 20)
	c.Put([]byte("k"), 1, "old", 3)
	if _, ok := c.Get([]byte("k"), 2); ok {
		t.Fatal("stale version reported a hit")
	}
	st := c.Stats()
	if st.Entries != 0 || st.Evictions != 1 || st.Misses != 1 {
		t.Errorf("after stale probe: %+v", st)
	}
	// The old version is gone too: the delete was eager, not lazy.
	if _, ok := c.Get([]byte("k"), 1); ok {
		t.Fatal("deleted entry resurfaced")
	}
}

func TestPutOverwrites(t *testing.T) {
	c := New(1 << 20)
	c.Put([]byte("k"), 1, "a", 100)
	c.Put([]byte("k"), 2, "b", 10)
	v, ok := c.Get([]byte("k"), 2)
	if !ok || v.(string) != "b" {
		t.Fatalf("Get after overwrite = %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 10+1+entryOverhead {
		t.Errorf("stats after overwrite = %+v", st)
	}
}

// TestLRUEviction: inserting past the budget evicts from the cold end,
// never the hot end, and keeps the total within the budget.
func TestLRUEviction(t *testing.T) {
	const entryBytes = entryOverhead + 8 + 4 // cost 8, four-byte keys
	const cap = 3 * entryBytes
	c := New(cap)
	c.Put([]byte("hot0"), 1, "v", 8)
	for i := 0; i < 256; i++ {
		c.Get([]byte("hot0"), 1) // keep it at the front
		c.Put([]byte(fmt.Sprintf("k%03d", i)), 1, "v", 8)
	}
	st := c.Stats()
	if st.Entries != 3 || st.Bytes != cap || st.Evictions != 254 {
		t.Fatalf("stats = %+v, want 3 entries, %d bytes, 254 evictions", st, cap)
	}
	for _, k := range []string{"hot0", "k254", "k255"} {
		if _, ok := c.Get([]byte(k), 1); !ok {
			t.Errorf("%s was evicted; the cold end should go first", k)
		}
	}
	if _, ok := c.Get([]byte("k253"), 1); ok {
		t.Error("k253 survived; it was the coldest entry")
	}
}

// TestOversizedValueSkipped: a value that alone exceeds the budget is not
// cached — it would evict everything and still not fit. A value that
// fills the budget exactly is cached.
func TestOversizedValueSkipped(t *testing.T) {
	const cap = 1024
	c := New(cap)
	c.Put([]byte("big"), 1, "v", 1<<20)
	if _, ok := c.Get([]byte("big"), 1); ok {
		t.Fatal("oversized value was cached")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("entries = %d, want 0", st.Entries)
	}
	c.Put([]byte("fits"), 1, "v", cap-4-entryOverhead)
	if _, ok := c.Get([]byte("fits"), 1); !ok {
		t.Fatal("value filling the budget exactly was not cached")
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != cap {
		t.Errorf("stats = %+v, want 1 entry of %d bytes", st, cap)
	}
}

func TestUnboundedCache(t *testing.T) {
	c := New(0)
	for i := 0; i < 1000; i++ {
		c.Put([]byte(fmt.Sprintf("k%d", i)), 1, i, 1<<12)
	}
	st := c.Stats()
	if st.Entries != 1000 || st.Evictions != 0 {
		t.Errorf("unbounded cache evicted: %+v", st)
	}
	if st.Capacity != 0 {
		t.Errorf("capacity = %d, want 0", st.Capacity)
	}
}

// TestNilCache: a nil *Cache is the disabled configuration — every method
// is a safe no-op so call sites need no branching.
func TestNilCache(t *testing.T) {
	var c *Cache
	if _, ok := c.Get([]byte("k"), 1); ok {
		t.Fatal("nil cache hit")
	}
	c.Put([]byte("k"), 1, "v", 1)
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil stats = %+v", st)
	}
}

// TestConcurrentAccess hammers Get/Put/Stats from many goroutines under a
// budget of a few entries, so evictions race with hits; run under -race
// this proves the mutex covers every path. Afterwards the counters must
// still add up.
func TestConcurrentAccess(t *testing.T) {
	const cap = 512
	c := New(cap)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := make([]byte, 0, 16)
			for i := 0; i < 500; i++ {
				key = append(key[:0], fmt.Sprintf("k%d", (g*31+i)%64)...)
				version := int64(i % 3)
				if v, ok := c.Get(key, version); ok {
					_ = v.(int)
				}
				c.Put(key, version, i, 16)
				if i%100 == 0 {
					_ = c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 8*500 {
		t.Errorf("hits %d + misses %d, want %d probes", st.Hits, st.Misses, 8*500)
	}
	if st.Evictions == 0 || st.Bytes > cap {
		t.Errorf("stats = %+v: want evictions and at most %d bytes", st, cap)
	}
	var bytes, n int64
	for e := c.root.next; e != &c.root; e = e.next {
		bytes, n = bytes+e.cost, n+1
		if c.m[e.key] != e {
			t.Fatalf("list entry %q missing from the map", e.key)
		}
	}
	if bytes != st.Bytes || n != st.Entries || int64(len(c.m)) != n {
		t.Errorf("list holds %d entries of %d bytes, map %d, stats %+v", n, bytes, len(c.m), st)
	}
}
