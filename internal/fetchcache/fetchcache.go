// Package fetchcache is the shared fetch/document layer of the
// Transformation Server: a process-wide, size-bounded LRU of parsed
// dom.Trees with singleflight deduplication, so that N wrappers (and
// the elog crawl frontier) monitoring the same pages share one
// fetch+parse instead of doing the work N times.
//
// A Cache does not fetch by itself; it wraps existing elog.Fetchers:
//
//	cache := fetchcache.New(1024, time.Second)
//	fetcher := cache.Wrap(sim) // sim is any elog.Fetcher
//
// Every Fetch through the wrapped fetcher first consults the cache.
// Entries are keyed by URL and indexed with the tree's content key
// (dom.Tree.ContentKey, for a parsed page a hash of its source bytes):
// when a stale entry is revalidated and the refetched page's key is
// unchanged, the cache keeps serving the original *dom.Tree object and
// drops the new one unbuilt, so an unchanged refresh costs a fetch and
// a hash, and downstream caches keyed on the tree (the wrapper poll
// memo, the compiled match caches) stay hot across the refresh.
// Concurrent fetches of the same URL coalesce into one upstream
// retrieval (singleflight); the followers block and share the leader's
// result. A new or changed tree is built and warmed (dom.Tree.Warm)
// before publication, so it is read-only and safe to share across
// concurrently evaluating wrappers.
//
// Freshness is bounded by the maxAge window: an entry older than
// maxAge is refetched on next use (maxAge <= 0 disables expiry — pure
// LRU). Fetch failures are never cached; the next Fetch retries, which
// preserves the evaluator's transient-error-healing semantics.
//
// All wrapped fetchers of one Cache share one URL namespace and must
// therefore resolve URLs identically (e.g. all wrap the same simulated
// web or the same HTTP client). Fetchers with private page overlays
// (inline-HTML wrappers) must not be wrapped.
package fetchcache

import (
	"sync"
	"time"

	"repro/internal/dom"
	"repro/internal/elog"
)

// Cache is the shared document store. The zero value is not usable;
// construct with New. A Cache is safe for concurrent use.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxAge     time.Duration
	entries    map[string]*entry
	head, tail *entry // LRU order, head = most recently used

	hits, misses, shared, expired, evictions uint64

	// now is the clock; replaced in tests.
	now func() time.Time
}

// entry is one cached page: a singleflight slot while the fetch is in
// flight, the parsed tree once done is closed.
type entry struct {
	url        string
	prev, next *entry
	done       chan struct{}
	tree       *dom.Tree
	err        error
	contentKey uint64
	fetched    time.Time
}

// New returns a cache holding at most maxEntries parsed documents
// (0 = unbounded) and treating entries older than maxAge as stale
// (maxAge <= 0 = entries never expire).
func New(maxEntries int, maxAge time.Duration) *Cache {
	return &Cache{
		maxEntries: maxEntries,
		maxAge:     maxAge,
		entries:    map[string]*entry{},
		now:        time.Now,
	}
}

// Stats is a snapshot of the cache counters, JSON-shaped for /statusz.
type Stats struct {
	// Entries and MaxEntries report current and maximum size.
	Entries    int   `json:"entries"`
	MaxEntries int   `json:"max_entries"`
	MaxAgeMS   int64 `json:"max_age_ms"`
	// Hits are fetches answered from a fresh entry; Misses went
	// upstream; Shared joined another caller's in-flight fetch.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Shared uint64 `json:"shared"`
	// Expired counts revalidations of stale entries (a subset of
	// Misses); Evictions counts LRU removals under size pressure.
	Expired   uint64 `json:"expired"`
	Evictions uint64 `json:"evictions"`
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:    len(c.entries),
		MaxEntries: c.maxEntries,
		MaxAgeMS:   c.maxAge.Milliseconds(),
		Hits:       c.hits,
		Misses:     c.misses,
		Shared:     c.shared,
		Expired:    c.expired,
		Evictions:  c.evictions,
	}
}

// Wrap returns a fetcher that serves url fetches through the cache,
// going to inner on a miss. All fetchers wrapped by one cache share
// one URL key space (see the package comment). Wrapping an
// already-wrapped fetcher of the same cache is a no-op, so layered call
// sites cannot stack the cache onto itself (which would deadlock a miss
// on its own in-flight entry).
func (c *Cache) Wrap(inner elog.Fetcher) elog.Fetcher {
	if cf, ok := inner.(*cachedFetcher); ok && cf.c == c {
		return inner
	}
	return &cachedFetcher{c: c, inner: inner}
}

// cachedFetcher is the Wrap result: an elog.Fetcher front end of the
// cache.
type cachedFetcher struct {
	c     *Cache
	inner elog.Fetcher
}

// Fetch implements elog.Fetcher.
func (f *cachedFetcher) Fetch(url string) (*dom.Tree, error) { return f.c.fetch(url, f.inner) }

// Invalidate drops the entry for url, forcing the next fetch upstream.
func (c *Cache) Invalidate(url string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[url]; e != nil && completed(e) {
		c.removeLocked(e)
	}
}

// Flush drops every completed entry.
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if completed(e) {
			c.removeLocked(e)
		}
	}
}

// Len returns the number of cached entries (including in-flight ones).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *Cache) fetch(url string, inner elog.Fetcher) (*dom.Tree, error) {
	c.mu.Lock()
	var prev *entry
	if e := c.entries[url]; e != nil {
		select {
		case <-e.done:
			if e.err == nil && !c.staleLocked(e) {
				c.hits++
				c.moveFrontLocked(e)
				t := e.tree
				c.mu.Unlock()
				return t, nil
			}
			if e.err == nil {
				c.expired++
			}
			prev = e
		default:
			// In flight: join the leader's fetch.
			c.shared++
			c.mu.Unlock()
			<-e.done
			return e.tree, e.err
		}
	}
	c.misses++
	e := &entry{url: url, done: make(chan struct{})}
	if prev != nil {
		c.removeLocked(prev)
	}
	c.entries[url] = e
	c.pushFrontLocked(e)
	c.evictLocked()
	c.mu.Unlock()

	t, err := inner.Fetch(url)
	if err == nil {
		ck := t.ContentKey()
		if prev != nil && prev.err == nil && prev.contentKey == ck {
			// Unchanged content: keep the original tree object so
			// downstream key/pointer caches survive the refresh.
			t = prev.tree
		} else {
			// Build and warm on the fetching goroutine so the published
			// tree is read-only for every sharer; a changed page re-parses
			// only what changed since the tree it replaces, which sharers
			// may still be reading (WarmFrom only reads it).
			var last *dom.Tree
			if prev != nil && prev.err == nil {
				last = prev.tree
			}
			t.WarmFrom(last)
		}
		e.tree, e.contentKey = t, ck
	}
	e.err = err
	c.mu.Lock()
	e.fetched = c.now()
	if err != nil && c.entries[url] == e {
		// Failures are not cached: the next fetch retries.
		c.removeLocked(e)
	}
	c.mu.Unlock()
	close(e.done)
	return e.tree, e.err
}

func (c *Cache) staleLocked(e *entry) bool {
	return c.maxAge > 0 && c.now().Sub(e.fetched) >= c.maxAge
}

func completed(e *entry) bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// evictLocked drops least-recently-used completed entries until the
// size bound holds; in-flight entries are never evicted (their callers
// hold the singleflight slot).
func (c *Cache) evictLocked() {
	if c.maxEntries <= 0 {
		return
	}
	e := c.tail
	for len(c.entries) > c.maxEntries && e != nil {
		victim := e
		e = e.prev
		if !completed(victim) {
			continue
		}
		c.removeLocked(victim)
		c.evictions++
	}
}

// --- intrusive LRU list, guarded by c.mu ---

func (c *Cache) pushFrontLocked(e *entry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) removeLocked(e *entry) {
	if c.entries[e.url] == e {
		delete(c.entries, e.url)
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) moveFrontLocked(e *entry) {
	if c.head == e {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	c.pushFrontLocked(e)
}
