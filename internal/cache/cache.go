// Package cache provides the content-addressed outcome cache behind the
// design toolflow and the sweep service: a concurrent, LRU-bounded map
// from canonical keys to computed values with single-flight deduplication,
// so identical in-flight design points are computed exactly once no matter
// how many sweeps or HTTP requests ask for them concurrently. The same
// Cache, optionally under a byte budget, holds the toolflow's intermediate
// artifacts (built circuits, compiled programs).
package cache

import (
	"container/list"
	"fmt"
	"sync"
)

// Stats is a snapshot of cache activity counters.
type Stats struct {
	// Hits counts lookups served from a stored entry.
	Hits uint64 `json:"hits"`
	// Shared counts lookups that attached to an in-flight computation of
	// the same key instead of starting their own (single-flight dedup).
	Shared uint64 `json:"shared"`
	// Misses counts computations actually started. Errored computations
	// are never stored, so a failing key counts a miss per retry; on a
	// deterministic error-free workload this is the number of unique keys
	// evaluated.
	Misses uint64 `json:"misses"`
	// Errors counts computations that returned an error (never stored).
	Errors uint64 `json:"errors"`
	// Evictions counts entries dropped by the entry or byte bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the current number of stored values.
	Entries int `json:"entries"`
}

// Cache is a bounded concurrent memo table. The zero value is not usable;
// construct with New or NewBudget. All methods are safe for concurrent use.
type Cache[V any] struct {
	mu         sync.Mutex
	maxEntries int
	// size and maxBytes are the optional byte budget (size nil: none);
	// bytes is the summed size of the stored entries.
	size     func(V) int64
	maxBytes int64
	bytes    int64
	ll       *list.List
	items    map[string]*list.Element
	inflight map[string]*call[V]
	stats    Stats
}

type entry[V any] struct {
	key  string
	val  V
	size int64
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a cache holding at most maxEntries values, evicting the
// least recently used entry when full. maxEntries <= 0 means unbounded.
func New[V any](maxEntries int) *Cache[V] {
	return &Cache[V]{
		maxEntries: maxEntries,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		inflight:   make(map[string]*call[V]),
	}
}

// NewBudget returns a cache bounded both by maxEntries (as in New) and by
// maxBytes, the summed size of its values as measured by size. A value
// larger than maxBytes is returned to every caller but never stored;
// otherwise each insert evicts least recently used entries until the
// stored bytes are back within maxBytes.
func NewBudget[V any](maxEntries int, maxBytes int64, size func(V) int64) *Cache[V] {
	c := New[V](maxEntries)
	c.size, c.maxBytes = size, maxBytes
	return c
}

// Get returns the stored value for key, if present, marking it recently
// used. It never blocks on in-flight computations.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ele, ok := c.items[key]; ok {
		c.ll.MoveToFront(ele)
		c.stats.Hits++
		return ele.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Put stores a value under key unconditionally (subject to the LRU and
// byte bounds), marking it recently used. The Store uses it to promote disk
// hits into the memory front without charging a miss.
func (c *Cache[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.add(key, val)
}

// Do returns the value for key, computing it with compute on a miss.
// Concurrent calls with the same key share one computation: exactly one
// caller runs compute, the rest block until it finishes. Successful
// results are stored (subject to the LRU bound); errors are returned to
// every waiter but never stored, so a later call retries. The returned
// bool reports whether the value came from the cache or an in-flight
// computation rather than a fresh compute by this caller.
//
// A miss that finds the cache full evicts the least recently used entry
// before compute runs, so the cache no longer pins the evicted value while
// its replacement is computed.
func (c *Cache[V]) Do(key string, compute func() (V, error)) (V, error, bool) {
	c.mu.Lock()
	if ele, ok := c.items[key]; ok {
		c.ll.MoveToFront(ele)
		c.stats.Hits++
		v := ele.Value.(*entry[V]).val
		c.mu.Unlock()
		return v, nil, true
	}
	if cl, ok := c.inflight[key]; ok {
		c.stats.Shared++
		c.mu.Unlock()
		<-cl.done
		return cl.val, cl.err, true
	}
	cl := &call[V]{done: make(chan struct{})}
	c.inflight[key] = cl
	c.stats.Misses++
	if c.maxEntries > 0 && c.ll.Len() >= c.maxEntries {
		c.evictTail()
	}
	c.mu.Unlock()

	// Settle the call even if compute panics, so waiters are released and
	// the key is retryable, then let the panic propagate to this caller.
	finished := false
	defer func() {
		if !finished {
			cl.err = fmt.Errorf("cache: compute for %q panicked", key)
		}
		c.mu.Lock()
		delete(c.inflight, key)
		if cl.err == nil {
			c.add(key, cl.val)
		} else {
			c.stats.Errors++
		}
		c.mu.Unlock()
		close(cl.done)
	}()
	cl.val, cl.err = compute()
	finished = true
	return cl.val, cl.err, false
}

// add stores a value under the lock, then evicts the LRU tail past either
// bound. A value over the whole byte budget is not stored, and replaces
// any older value under key by nothing.
func (c *Cache[V]) add(key string, val V) {
	var n int64
	if c.size != nil {
		n = c.size(val)
	}
	if ele, ok := c.items[key]; ok {
		c.remove(ele)
	}
	if c.size != nil && n > c.maxBytes {
		return
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: val, size: n})
	c.bytes += n
	for (c.maxEntries > 0 && c.ll.Len() > c.maxEntries) || (c.size != nil && c.bytes > c.maxBytes) {
		c.evictTail()
	}
}

// evictTail drops the least recently used entry, under the lock.
func (c *Cache[V]) evictTail() {
	c.remove(c.ll.Back())
	c.stats.Evictions++
}

// remove unlinks one stored entry, under the lock.
func (c *Cache[V]) remove(ele *list.Element) {
	e := c.ll.Remove(ele).(*entry[V])
	delete(c.items, e.key)
	c.bytes -= e.size
}

// Len returns the current number of stored entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the summed size of the stored entries; always 0 for a
// cache without a byte budget.
func (c *Cache[V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns a snapshot of the activity counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}
