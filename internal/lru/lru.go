// Package lru provides a small mutex-guarded LRU cache with hit/miss/
// eviction counters. The SEM's fixed-argument pairing programs and the
// Boneh-Franklin per-recipient GT combs are both keyed by identity and
// unbounded in principle — millions of users — so every cache of derived
// per-identity state in this codebase is bounded by this one policy.
package lru

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// Stats is a snapshot of a cache's counters. Every lookup is a hit or a
// miss; Rejected counts the misses GetOrAdmit refused to insert, so
// Misses − Rejected of them built a value.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Rejected  uint64
}

// Cache is a fixed-capacity least-recently-used map. All methods are safe
// for concurrent use. The zero value is not usable; construct with New.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *entry[K, V]
	items map[K]*list.Element
	stats Stats
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most capacity entries. Capacities
// below 1 are clamped to 1 — a degenerate but functional cache — rather
// than rejected, so misconfiguration degrades performance, not correctness.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[K]*list.Element),
	}
}

// Get returns the value cached under key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*entry[K, V]).val, true
	}
	c.stats.Misses++
	var zero V
	return zero, false
}

// GetOrAdmit returns the value cached under key (hit), or — atomically with
// the lookup — inserts and returns mk() (ok without hit), so concurrent
// callers missing on one key agree on a single value: the first inserts it
// and every other finds it. That makes the entry itself the rendezvous for
// build-once state (cache a value that carries a sync.Once; see
// core.pairerCache). A miss on a full cache inserts, and evicts the least
// recently used entry, only if admit says that entry's key should make way;
// otherwise it only counts as Rejected and ok is false. admit and mk run
// under the cache lock: they must not call back into the cache.
func (c *Cache[K, V]) GetOrAdmit(key K, admit func(victim K) bool, mk func() V) (val V, hit, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.items[key]; found {
		c.order.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*entry[K, V]).val, true, true
	}
	c.stats.Misses++
	if c.order.Len() >= c.cap {
		if !admit(c.order.Back().Value.(*entry[K, V]).key) {
			c.stats.Rejected++
			return val, false, false
		}
		c.evictOldest()
	}
	val = mk()
	c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
	return val, false, true
}

// Add inserts or replaces the value under key (marking it most recently
// used) and reports whether an older entry was evicted to make room.
func (c *Cache[K, V]) Add(key K, val V) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.order.MoveToFront(el)
		return false
	}
	c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
	if c.order.Len() <= c.cap {
		return false
	}
	c.evictOldest()
	return true
}

// Remove drops the entry under key, reporting whether it was present.
// Removals are deliberate invalidations (revocation, re-registration), not
// capacity pressure, so they do not count as evictions.
func (c *Cache[K, V]) Remove(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.order.Remove(el)
	delete(c.items, key)
	return true
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns a snapshot of the hit/miss/eviction counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Instrument registers the cache's counters with reg under the shared
// lru_* metric families, one series per cache distinguished by a
// cache=<name> label: lru_hits_total, lru_misses_total,
// lru_evictions_total, lru_rejected_total and the lru_entries gauge. The
// series are function-backed — export samples Stats()/Len() at scrape time,
// so instrumentation adds nothing to the cache's own lock scope.
func (c *Cache[K, V]) Instrument(reg *obs.Registry, name string) {
	label := obs.Label{Key: "cache", Value: name}
	reg.CounterFunc("lru_hits_total", "cache lookups served from the cache",
		func() uint64 { return c.Stats().Hits }, label)
	reg.CounterFunc("lru_misses_total", "cache lookups that missed",
		func() uint64 { return c.Stats().Misses }, label)
	reg.CounterFunc("lru_evictions_total", "entries evicted by capacity pressure",
		func() uint64 { return c.Stats().Evictions }, label)
	reg.CounterFunc("lru_rejected_total", "misses refused admission to a full cache",
		func() uint64 { return c.Stats().Rejected }, label)
	reg.GaugeFunc("lru_entries", "entries currently cached",
		func() int64 { return int64(c.Len()) }, label)
}

// evictOldest removes the least recently used entry. Caller holds c.mu.
func (c *Cache[K, V]) evictOldest() {
	oldest := c.order.Back()
	if oldest == nil {
		return
	}
	c.order.Remove(oldest)
	delete(c.items, oldest.Value.(*entry[K, V]).key)
	c.stats.Evictions++
}
