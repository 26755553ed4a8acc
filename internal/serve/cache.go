// Package serve is the simulation-as-a-service layer: a long-running
// HTTP/JSON server that accepts single-run specs and full study
// recipes (the studycli.Config wire format shared with pncoord and
// `pnstudy -worker`), executes them through the study engine with
// bounded admission, and answers repeated or overlapping requests from
// a content-addressed result cache instead of re-simulating.
//
// Everything rests on one property the rest of the repository already
// guarantees: a run is a deterministic function of (spec, seed), and a
// study outcome a deterministic function of its fingerprint. That
// makes results content-addressable — the cache key is the canonical
// digest of the study identity (fingerprint: base-spec digest, axes,
// seed, seed mode, reps, histogram geometry), and nothing execution-
// dependent (such as the worker count) ever reaches the key. A
// cache hit therefore returns bytes that are bit-identical to what a
// cold run would have produced, with zero simulation work; and because
// cells are content-addressed individually (study.CellIdentity), a new
// study that shares matrix cells with an earlier one re-simulates only
// the cells the cache has never seen.
package serve

import (
	"container/list"
	"sync"
)

// CacheStats is the observable state of the result cache.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Budget    int64 `json:"budget_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

type cacheEntry struct {
	key string
	val []byte
}

// Cache is a bounded, concurrency-safe content-addressed byte store:
// least-recently-used entries are evicted once the byte budget
// (values plus keys) is exceeded. Values are stored and returned by
// reference — callers must treat them as immutable, which is natural
// here: every value is a canonical rendering of content-addressed data,
// so mutating one would break the "bit-identical to a cold run"
// contract anyway.
type Cache struct {
	mu        sync.Mutex
	budget    int64
	ll        *list.List // front = most recently used
	index     map[string]*list.Element
	bytes     int64
	hits      int64
	misses    int64
	evictions int64
}

// NewCache returns a cache bounded to roughly budget bytes of keys and
// values (budget <= 0 selects 64 MiB).
func NewCache(budget int64) *Cache {
	if budget <= 0 {
		budget = 64 << 20
	}
	return &Cache{budget: budget, ll: list.New(), index: map[string]*list.Element{}}
}

func entryCost(e *cacheEntry) int64 { return int64(len(e.key) + len(e.val)) }

// Get returns the value stored under key and refreshes its recency.
// The returned slice is shared — read-only by contract.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put stores val under key (replacing any previous value) and evicts
// least-recently-used entries until the store fits its budget. A value
// that alone exceeds the whole budget is not cached — admitting it
// would evict everything else for one entry that can never be retained
// alongside anything.
func (c *Cache) Put(key string, val []byte) {
	e := &cacheEntry{key: key, val: val}
	if entryCost(e) > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		old := el.Value.(*cacheEntry)
		c.bytes += entryCost(e) - entryCost(old)
		el.Value = e
		c.ll.MoveToFront(el)
	} else {
		c.index[key] = c.ll.PushFront(e)
		c.bytes += entryCost(e)
	}
	for c.bytes > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.index, victim.key)
		c.bytes -= entryCost(victim)
		c.evictions++
	}
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries: c.ll.Len(), Bytes: c.bytes, Budget: c.budget,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
	}
}
