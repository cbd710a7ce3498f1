package plan

// A process-wide compiled-statement cache. Templates produced by the
// Prepare* functions are immutable after stripTemplate — Bind only reads
// them while constructing fresh per-world operator state — so one compiled
// template can be shared by every session in the process. The cache is an
// LRU keyed by the caller's composite key (statement text plus a schema
// fingerprint of the catalog the template was compiled against), so
// sessions with identical schemas hit each other's entries while sessions
// with divergent schemas occupy separate slots instead of thrashing a
// shared one.
//
// Both engines look templates up through Cached, which revalidates every
// hit by binding the template against the session's own catalog, so a stale
// or colliding entry degrades to a recompile, never to a wrong answer.

import (
	"container/list"
	"sync"
	"sync/atomic"

	"maybms/internal/obs"
)

// DefaultCacheCapacity bounds the shared cache. Each entry is a compiled
// template stripped of tuple data (schemas and expression trees only), so
// the memory cost per entry is small.
const DefaultCacheCapacity = 4096

// CacheStats counts cache traffic since creation (or the last Reset).
type CacheStats struct {
	// Hits counts Gets that found a live entry.
	Hits uint64
	// Misses counts Gets that found nothing.
	Misses uint64
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64
}

// Cache is a synchronized, size-bounded LRU of compiled statement
// templates. The zero value is not usable; call NewCache.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	stats    CacheStats
}

type cacheEntry struct {
	key string
	val any
}

// NewCache creates a cache bounded to capacity entries (values < 1 select
// DefaultCacheCapacity).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Get returns the value under key, marking it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put stores val under key, evicting the least recently used entry when
// the cache is full.
func (c *Cache) Put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	c.evictOverflowLocked()
}

// evictOverflowLocked drops LRU entries until the cache fits its capacity.
func (c *Cache) evictOverflowLocked() {
	for c.ll.Len() > c.capacity {
		el := c.ll.Back()
		if el == nil {
			return
		}
		c.ll.Remove(el)
		delete(c.items, el.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Capacity returns the current entry bound.
func (c *Cache) Capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

// SetCapacity re-bounds the cache, evicting LRU entries if it shrank.
// Values < 1 select DefaultCacheCapacity.
func (c *Cache) SetCapacity(capacity int) {
	if capacity < 1 {
		capacity = DefaultCacheCapacity
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = capacity
	c.evictOverflowLocked()
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Reset drops every entry and zeroes the counters.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	c.stats = CacheStats{}
}

// sharedCache is the process-wide default used by every session unless it
// opts into a private cache.
var sharedCache = NewCache(DefaultCacheCapacity)

// SharedCache returns the process-wide template cache.
func SharedCache() *Cache { return sharedCache }

// Lookups attributes plan-cache lookups to one session: templates found
// valid in the cache vs. compiled fresh on its behalf. The zero value is
// ready to use.
type Lookups struct {
	hits, misses atomic.Uint64
}

// Counts returns the hits and misses so far.
func (l *Lookups) Counts() (hits, misses uint64) { return l.hits.Load(), l.misses.Load() }

// Cached returns the template under key when it is present and still binds
// against the caller's catalog, else compiles it, stores it under key and
// returns it. bind is the validation bind: its error (ErrRebind — the
// catalog lacks a table or a column the template reads) marks the entry
// stale. Every lookup opens a "plan" span on tr with cache=hit|miss and
// counts on l.
func Cached[T any](c *Cache, tr *obs.Trace, l *Lookups, key string, bind func(T) error, compile func() (T, error)) (T, error) {
	sp := tr.Begin("plan")
	defer sp.End(tr)
	if v, ok := c.Get(key); ok {
		if p, ok := v.(T); ok && bind(p) == nil {
			l.hits.Add(1)
			sp.Set("cache", "hit")
			return p, nil
		}
	}
	l.misses.Add(1)
	sp.Set("cache", "miss")
	p, err := compile()
	if err != nil {
		var zero T
		return zero, err
	}
	c.Put(key, p)
	return p, nil
}
