// Package lru provides the bounded, concurrency-safe LRU memoization
// primitive behind the engine's one bounded cross-query cache, the
// normalized cells of text.NormCache. Values are computed outside the
// cache lock and shared across callers read-only; see Cache.Get for the
// exact protocol.
package lru

import (
	"container/list"
	"sync"
)

// Cache memoizes a pure function of K, keeping at most cap entries in
// least-recently-used order. The zero value is not usable; construct with
// New.
type Cache[K comparable, V any] struct {
	mu  sync.Mutex
	cap int
	lru *list.List // front = most recent; values are *entry[K, V]
	m   map[K]*list.Element

	hits, misses uint64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an LRU of at most capacity entries. The map grows with
// actual use rather than being pre-sized, so short-lived caches don't pay
// for the full bound up front.
//
// capacity must be positive: New panics on capacity <= 0. A non-positive
// bound would silently turn every insert into insert-then-evict — a
// disabled cache with no signal — and every in-repo wrapper maps its
// "use the default size" sentinel to a real bound before calling New.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity <= 0 {
		panic("lru: non-positive capacity")
	}
	return &Cache[K, V]{
		cap: capacity,
		lru: list.New(),
		m:   make(map[K]*list.Element),
	}
}

// Get returns the value for key, calling compute on a miss. compute runs
// outside the cache lock so concurrent misses don't serialize; it must be
// a pure function of key — a racing duplicate insert holds an identical
// value, and the LRU keeps one entry per key. The returned value is
// shared with every other caller: treat it as read-only. A warm hit
// allocates nothing.
func (c *Cache[K, V]) Get(key K, compute func() V) V {
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		c.lru.MoveToFront(el)
		v := el.Value.(*entry[K, V]).val
		c.hits++
		c.mu.Unlock()
		return v
	}
	c.misses++
	c.mu.Unlock()

	v := compute()

	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		// A racing computer inserted first. Its entry is as recently used
		// as a fresh insert would be (and this lookup is served from it),
		// so refresh recency and count the hit like any other.
		c.lru.MoveToFront(el)
		v = el.Value.(*entry[K, V]).val
		c.hits++
	} else {
		c.m[key] = c.lru.PushFront(&entry[K, V]{key: key, val: v})
		if c.lru.Len() > c.cap {
			oldest := c.lru.Back()
			c.lru.Remove(oldest)
			delete(c.m, oldest.Value.(*entry[K, V]).key)
		}
	}
	c.mu.Unlock()
	return v
}

// Stats reports cumulative hit/miss counts.
func (c *Cache[K, V]) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
