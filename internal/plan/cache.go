package plan

// A process-wide compiled-statement cache. A template produced by the
// Prepare* functions is immutable — Bind only reads it while constructing
// fresh per-world operator state — and holds no tuples, so one compiled
// template can be shared by every session in the process. The cache is an
// LRU keyed by the caller's key: the template's kind and the statement text
// (for a post-split template, also its input schema).
//
// A template's validity is a fact about the tables it read. Each Prepare*
// compiles through a recorder that notes every table it resolves with that
// table's schema, and Cached treats a hit as valid when every one of them
// resolves in the caller's catalog with the same column names — exactly
// what Bind checks, so a valid hit always binds. Anything else recompiles:
// a stale entry costs a compile, never a wrong answer, and DDL on tables a
// template did not read leaves it valid.
//
// A key holds one template. Sessions whose tables a text reads have the
// same column names share it; two live sessions running one text over
// same-named tables with different columns take turns recompiling that one
// slot, each always bound to a template of its own schemas.

import (
	"container/list"
	"slices"
	"sync"
	"sync/atomic"

	"maybms/internal/obs"
	"maybms/internal/relation"
	"maybms/internal/schema"
)

// DefaultCacheCapacity bounds the shared cache. Each entry is a compiled
// template without tuple data (schemas and expression trees only), so the
// memory cost per entry is small.
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

// sharedCache is the process-wide cache every session uses.
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

// template is a compiled statement template: it knows the tables it read.
type template interface {
	validIn(cat Catalog) bool
}

// tableRead is a table a template read, with its schema at compile time.
type tableRead struct {
	name string
	sch  *schema.Schema
}

// reads lists the tables a template read.
type reads []tableRead

// validIn reports whether every table read resolves in cat with the column
// names it had at compile time.
func (r reads) validIn(cat Catalog) bool {
	for _, t := range r {
		rel, err := cat.Lookup(t.name)
		if err != nil || !sameColumnNames(rel.Schema, t.sch) {
			return false
		}
	}
	return true
}

// recorder is the catalog every Prepare* compiles through: it notes each
// table it resolves, with that table's schema, and hands the planner an
// empty relation of that schema (a bare one, which reads as empty). Errors
// pass through unchanged.
type recorder struct {
	cat   Catalog
	reads reads
}

// Lookup implements Catalog.
func (r *recorder) Lookup(name string) (*relation.Relation, error) {
	rel, err := r.cat.Lookup(name)
	if err != nil {
		return nil, err
	}
	if !slices.ContainsFunc(r.reads, func(t tableRead) bool { return t.name == name }) {
		r.reads = append(r.reads, tableRead{name: name, sch: rel.Schema})
	}
	return &relation.Relation{Schema: rel.Schema}, nil
}

// Cached returns the template under key when it is present and valid in
// cat, the catalog the caller compiles against, else compiles it, stores it
// under key and returns it. Every lookup opens a "plan" span on tr with
// cache=hit|miss and counts on l.
func Cached[T template](c *Cache, tr *obs.Trace, l *Lookups, key string, cat Catalog, compile func() (T, error)) (T, error) {
	sp := tr.Begin("plan")
	defer sp.End(tr)
	if v, ok := c.Get(key); ok {
		if p, ok := v.(T); ok && p.validIn(cat) {
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
