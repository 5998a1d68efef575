// Package lru provides a bounded, mutex-guarded least-recently-used map:
// the memo behind profile.Run, the figure functions' table of simulated
// cells and pipeline.Cache's resident artifacts. Values are stored and
// handed out as-is, so a value shared through the map must be treated as
// read-only by every caller.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps keys to values, evicting the least recently used entry once it
// holds more than its capacity. It is safe for concurrent use. Concurrent
// misses on one key are not coalesced: each caller computes and Adds its
// own value, and the last Add wins, so callers must only store values that
// are a pure function of the key.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	items    map[K]*list.Element // key -> element whose Value is *entry[K, V]
	order    list.List           // front = most recently used
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns a cache holding up to capacity entries; capacity <= 0 stores
// nothing, so every Get misses.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{capacity: capacity, items: map[K]*list.Element{}}
}

// Get returns the value stored under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Add stores v under k as the most recently used entry, replacing any value
// already there, evicts the least recently used entries beyond the
// capacity, and returns how many it evicted.
func (c *Cache[K, V]) Add(k K, v V) (evicted int) {
	if c.capacity <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*entry[K, V]).val = v
		c.order.MoveToFront(el)
		return 0
	}
	c.items[k] = c.order.PushFront(&entry[K, V]{key: k, val: v})
	for ; c.order.Len() > c.capacity; evicted++ {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.items, back.Value.(*entry[K, V]).key)
	}
	return evicted
}

// Len returns the number of stored entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Reset drops every entry.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.items)
	c.order.Init()
}
