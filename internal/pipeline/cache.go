package pipeline

import (
	"sync"

	"ivliw/internal/lru"
)

// DefaultCacheSize is the compile-cache capacity (in artifacts) used when a
// caller does not size the cache explicitly. Sized for the largest grids the
// figure drivers and default sweeps produce (tens of distinct compile keys)
// with plenty of slack; one artifact holds a handful of scheduled loops.
const DefaultCacheSize = 256

// Cache is a bounded, content-addressed store of compile-stage artifacts,
// shared by the cells of a sweep (or the variants of a figure). It is safe
// for concurrent use and single-flight: when several cells need the same
// compile key at once, exactly one compiles and the rest wait for its
// result. Least-recently-used artifacts are evicted beyond the capacity, so
// memory stays bounded for arbitrarily large grids. Deterministic compile
// errors are cached like results: every cell sharing the key reports the
// same error whether it compiled or hit.
//
// A nil *Cache is valid and means "no caching": Get compiles fresh.
//
// A cache built with NewCacheOver fills misses from a backing Store instead
// of compiling directly — the two-level memory-over-disk composition: the
// memory tier absorbs the working set and single-flights concurrent cells,
// the backing tier (typically a DiskStore) persists artifacts across
// processes.
type Cache struct {
	// mu makes a lookup and the insertion of its miss one step, which is
	// what makes the cache single-flight; entries has its own lock too.
	mu       sync.Mutex
	capacity int
	next     Store                           // miss source; nil = Compile directly
	entries  *lru.Cache[string, *cacheEntry] // resident artifacts (capacity > 0)
	inflight map[string]*cacheEntry          // pass-through single-flight (capacity <= 0 over next)

	hits, misses, evictions int64
}

// cacheEntry is one keyed compilation; ready closes when art/err are set.
type cacheEntry struct {
	ready chan struct{}
	art   *Artifact
	err   error
}

// CacheStats is a point-in-time snapshot of the cache counters. Misses
// count compilations (including single-flight leaders); hits count cells
// served an existing or in-flight artifact.
type CacheStats struct {
	Hits, Misses, Evictions int64
}

// NewCache returns a cache holding up to capacity artifacts. capacity <= 0
// disables storage entirely: every Get compiles fresh (and counts a miss),
// which is the reference behaviour byte-identity is gated against.
func NewCache(capacity int) *Cache {
	return NewCacheOver(capacity, nil)
}

// NewCacheOver returns a cache that resolves misses through next instead of
// compiling directly (next == nil restores NewCache behaviour). Layering a
// memory cache over a DiskStore gives warm cross-process starts with
// in-process single-flight sharing; capacity <= 0 turns the memory tier into
// a pass-through, so every Get consults next.
func NewCacheOver(capacity int, next Store) *Cache {
	c := &Cache{capacity: capacity, next: next}
	if c.capacity > 0 {
		c.entries = lru.New[string, *cacheEntry](capacity)
	}
	return c
}

// fill produces an artifact on a memory miss: from the backing store when
// layered, by compiling otherwise. key is s.Key(), passed down so one
// lookup chain fingerprints its spec once.
func (c *Cache) fill(s CompileSpec, key string) (*Artifact, error) {
	if c.next != nil {
		return getKeyed(c.next, s, key)
	}
	return compileKeyed(s, key)
}

// Capacity returns the configured bound (0 when disabled).
func (c *Cache) Capacity() int {
	if c == nil || c.capacity < 0 {
		return 0
	}
	return c.capacity
}

// Stats returns a snapshot of the counters (zero for a nil cache).
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}

// Get returns the artifact for the spec, compiling it at most once per key
// while it stays resident. The returned artifact is shared: callers must
// treat it as read-only (Simulate does).
func (c *Cache) Get(s CompileSpec) (*Artifact, error) {
	return c.get(s, s.Key())
}

// get is Get with the spec's key already computed.
func (c *Cache) get(s CompileSpec, key string) (*Artifact, error) {
	if c == nil {
		return compileKeyed(s, key)
	}
	if c.capacity <= 0 {
		c.mu.Lock()
		if c.next == nil {
			// Plain disabled cache: every Get compiles fresh (and counts
			// a miss) — the reference behaviour byte-identity is gated
			// against.
			c.misses++
			c.mu.Unlock()
			return compileKeyed(s, key)
		}
		// Pass-through over a backing store: nothing is retained, but
		// concurrent Gets of one key still share a single fill so a cold
		// disk store is not compiled once per worker. Joining an in-flight
		// fill counts as a hit, like the LRU path.
		if e, ok := c.inflight[key]; ok {
			c.hits++
			c.mu.Unlock()
			<-e.ready
			return e.art, e.err
		}
		c.misses++
		e := &cacheEntry{ready: make(chan struct{})}
		if c.inflight == nil {
			c.inflight = make(map[string]*cacheEntry)
		}
		c.inflight[key] = e
		c.mu.Unlock()
		e.art, e.err = getKeyed(c.next, s, key)
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(e.ready)
		return e.art, e.err
	}
	c.mu.Lock()
	if e, ok := c.entries.Get(key); ok {
		c.hits++
		c.mu.Unlock()
		<-e.ready // single-flight: wait for the compiling leader
		return e.art, e.err
	}
	c.misses++
	e := &cacheEntry{ready: make(chan struct{})}
	// An evicted in-flight entry still completes for whoever holds it; it
	// just stops being findable.
	c.evictions += int64(c.entries.Add(key, e))
	c.mu.Unlock()

	e.art, e.err = c.fill(s, key)
	close(e.ready)
	return e.art, e.err
}
