// Package plancache implements a bounded, concurrently shared LRU cache
// of compiled access modules keyed on (query digest, catalog version).
//
// The paper's embedded-query scenario (§1) compiles a query once and
// re-activates the stored access module for every execution; the cache
// extends that to an online service: the first execution of a prepared
// statement pays the full optimization, every later execution — by any
// tenant — reuses the immutable module and pays only start-up-time
// activation. Keying on the catalog version makes Analyze-driven
// statistics refreshes invalidate stale plans implicitly: a bumped
// version simply never hits the old entries, and the LRU sweeps them
// out.
//
// Construction is deliberately confined: New must only be called from
// the pipeline assembly (pipeline.go), so there is exactly one shared
// cache per database and no side-channel caches to reason about.
package plancache

import (
	"container/list"
	"sync"
)

// Key identifies one cached plan: the digest of everything the plan
// depends on in the query, plus the catalog version it was compiled
// under.
type Key struct {
	Digest         string
	CatalogVersion uint64
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// entry is one cache slot. ready is closed when compute finishes;
// waiters block on it, so concurrent lookups of the same key share one
// compilation (single flight) instead of stampeding the optimizer.
type entry struct {
	key   Key
	ready chan struct{}
	val   any
	err   error
	elem  *list.Element
}

// Cache is a bounded LRU with single-flight computation. All methods
// are safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[Key]*entry
	lru      *list.List // front = most recent; values are *entry
	stats    Stats
}

// New creates a cache holding at most capacity entries; capacity < 1 is
// clamped to 1. It must be called only from the pipeline assembly.
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[Key]*entry),
		lru:      list.New(),
	}
}

// Do returns the value for k, computing it at most once across
// concurrent callers. hit reports whether the value came from the cache
// (a waiter joining an in-flight computation counts as a hit: it did not
// pay for compilation). A failed computation is removed so later callers
// retry.
func (c *Cache) Do(k Key, compute func() (any, error)) (v any, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		c.lru.MoveToFront(e.elem)
		c.stats.Hits++
		c.mu.Unlock()
		<-e.ready
		return e.val, true, e.err
	}
	e := &entry{key: k, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[k] = e
	c.stats.Misses++
	for c.lru.Len() > c.capacity {
		oldest := c.lru.Back()
		victim := oldest.Value.(*entry)
		c.lru.Remove(oldest)
		delete(c.entries, victim.key)
		c.stats.Evictions++
	}
	c.mu.Unlock()

	e.val, e.err = compute()
	close(e.ready)
	if e.err != nil {
		c.mu.Lock()
		// Only remove if this entry is still the resident one (it may
		// already have been evicted or invalidated).
		if cur, ok := c.entries[k]; ok && cur == e {
			c.lru.Remove(e.elem)
			delete(c.entries, k)
		}
		c.mu.Unlock()
		return nil, false, e.err
	}
	return e.val, false, nil
}

// Invalidate drops the entry for k, if present. In-flight waiters on the
// dropped entry still receive its value; later lookups recompute.
func (c *Cache) Invalidate(k Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		c.lru.Remove(e.elem)
		delete(c.entries, k)
	}
}

// InvalidateOlderThan drops every entry compiled under a catalog version
// strictly below v and returns how many were dropped. Analyze calls this
// after bumping the version: keying alone already prevents stale hits,
// but sweeping eagerly frees capacity for fresh plans.
func (c *Cache) InvalidateOlderThan(v uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*entry)
		if e.key.CatalogVersion < v {
			c.lru.Remove(el)
			delete(c.entries, e.key)
			n++
		}
		el = next
	}
	return n
}

// Len returns the number of resident entries (including in-flight ones).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a snapshot of the hit/miss/eviction counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
