package elog

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// MatchCache is the match memo of compiled evaluation. Every evaluation
// consults exactly one: the evaluator's Shared cache when it is set,
// otherwise the compiled program's own (see CompiledProgram.memo).
//
// Shared, it batches fleet extraction: when a fleet of wrappers
// monitors the same pages (one fetch+parse shared through fetchcache),
// attaching one MatchCache to all of their evaluators also shares the
// pattern-matching work. Keys carry a signature of the element path
// definition itself, so two independently compiled wrappers containing
// the same path — the common case in a fleet stamped from one template
// — reuse each other's match results on the same document. A
// 100-wrapper fleet over one shared page then costs roughly one parse
// plus one warmed match cache instead of 100 of each.
//
// The cache holds two entry kinds in one map behind one LRU bound:
// whole-call results keyed by document fingerprint and context set, and
// per-root relative results keyed by subtree fingerprint (the
// incremental layer — see Evaluator.Incremental), which survive
// document churn because they are content-addressed. Memory is bounded:
// at the entry cap the least recently used entry of either kind is
// evicted.
//
// A MatchCache is safe for concurrent use by any number of evaluators.
// Entries are value-compatible across programs: a match result depends
// only on the path definition (captured by the signature) and the
// document content (captured by the tree or subtree fingerprint),
// never on the program around it.
type MatchCache struct {
	mu         sync.Mutex
	entries    map[matchKey]*mcEntry
	head, tail *mcEntry // LRU list; head is most recently used
	capEntries int
	bytes      int // approximate heap held by live entries (mcEntry.size)

	hits, misses atomic.Uint64
	evictions    atomic.Uint64
	attached     atomic.Int64
}

// matchKey identifies one memoized match: the path signature, the
// document fingerprint (or, for a subtree entry, the root's subtree
// hash), a hash of the context roots (zero for a subtree entry) and the
// two match-mode flags. A subtree entry's matches hold node offsets
// from its root rather than node ids (see matchIncremental), so it
// carries no document fingerprint and no node ids: it survives across
// document versions and even across documents. Hash collisions are as
// unlikely as fingerprint collisions (~2^-64), the same trade the xpath
// cache makes.
type matchKey struct {
	sig, fp, roots   uint64
	asChildren, deep bool
	sub              bool
}

// mcEntry is one cache entry on the intrusive LRU list, remembering the
// key it sits under.
type mcEntry struct {
	prev, next *mcEntry
	key        matchKey
	matches    []epdMatch
}

// size approximates the heap an entry holds: the entry itself, its map
// slot, and 16 bytes per cached match (a node id or offset plus the
// binds pointer; shared binds maps are not counted).
func (e *mcEntry) size() int {
	return int(unsafe.Sizeof(*e)+unsafe.Sizeof(matchKey{})+8) + 16*len(e.matches)
}

// DefaultMatchCacheEntries is the entry cap of NewMatchCache, and of
// the memo a compiled program creates for its unattached runs. It is
// sized for a whole fleet: set-at-a-time rule application writes a
// handful of entries per evaluation, so it is several times the largest
// live working set measured (about 6.5 k entries for four 800-row pages
// at 5 % churn) and is reached — the cache stops growing — within
// seconds under churn.
const DefaultMatchCacheEntries = 16384

// NewMatchCache returns an empty shared match cache with the default
// entry cap.
func NewMatchCache() *MatchCache { return NewMatchCacheSize(0) }

// NewMatchCacheSize returns an empty shared match cache evicting least
// recently used entries beyond maxEntries (<= 0 means
// DefaultMatchCacheEntries).
func NewMatchCacheSize(maxEntries int) *MatchCache {
	if maxEntries <= 0 {
		maxEntries = DefaultMatchCacheEntries
	}
	return &MatchCache{entries: make(map[matchKey]*mcEntry), capEntries: maxEntries}
}

// Stats returns the cumulative whole-call counters: hits are match
// calls some evaluator answered from its own or another program's
// earlier work; misses are lookups that fell through to computation.
// Like CompiledProgram.Stats they count rule applications, not parent
// instances: a wrapper probes about once per rule and document.
func (mc *MatchCache) Stats() (hits, misses uint64) {
	return mc.hits.Load(), mc.misses.Load()
}

// Attach records one more wrapper drawing on the cache; Attached is the
// fleet's batch size, surfaced in extraction stats.
func (mc *MatchCache) Attach() { mc.attached.Add(1) }

// Detach undoes one Attach.
func (mc *MatchCache) Detach() { mc.attached.Add(-1) }

// Attached returns the number of currently attached wrappers.
func (mc *MatchCache) Attached() int { return int(mc.attached.Load()) }

// BatchStats is a JSON-friendly snapshot of a MatchCache, surfaced on
// the server's /statusz and GET /v1/wrappers payloads.
type BatchStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Attached int    `json:"attached"`
	// Entries counts live entries of both kinds (document-keyed and
	// subtree-keyed); Evictions counts entries dropped at the LRU cap.
	Entries   int    `json:"entries"`
	Evictions uint64 `json:"evictions"`
	// Bytes approximates the heap the live entries hold: entry, key and
	// 16 bytes per cached match.
	Bytes int `json:"bytes"`
}

// Report returns the cache's current counters and size.
func (mc *MatchCache) Report() BatchStats {
	mc.mu.Lock()
	entries, bytes := len(mc.entries), mc.bytes
	mc.mu.Unlock()
	return BatchStats{
		Hits:      mc.hits.Load(),
		Misses:    mc.misses.Load(),
		Attached:  mc.Attached(),
		Entries:   entries,
		Evictions: mc.evictions.Load(),
		Bytes:     bytes,
	}
}

// moveFront makes e the most recently used entry. Caller holds mu.
func (mc *MatchCache) moveFront(e *mcEntry) {
	if mc.head == e {
		return
	}
	// Unlink (e is in the list unless it is new).
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if mc.tail == e {
		mc.tail = e.prev
	}
	e.prev = nil
	e.next = mc.head
	if mc.head != nil {
		mc.head.prev = e
	}
	mc.head = e
	if mc.tail == nil {
		mc.tail = e
	}
}

// evict drops least recently used entries until the cap holds. Caller
// holds mu.
func (mc *MatchCache) evict() {
	for len(mc.entries) > mc.capEntries && mc.tail != nil {
		e := mc.tail
		mc.tail = e.prev
		if mc.tail != nil {
			mc.tail.next = nil
		} else {
			mc.head = nil
		}
		delete(mc.entries, e.key)
		mc.bytes -= e.size()
		mc.evictions.Add(1)
	}
}

// get looks the key up. A whole-call probe counts a hit or miss; a
// subtree probe does not — the per-program IncrementalStats count
// subtree lookups, keeping the two stats blocks independently
// meaningful.
func (mc *MatchCache) get(k matchKey) ([]epdMatch, bool) {
	mc.mu.Lock()
	e, ok := mc.entries[k]
	var m []epdMatch
	if ok {
		m = e.matches
		mc.moveFront(e)
	}
	mc.mu.Unlock()
	if !k.sub {
		if ok {
			mc.hits.Add(1)
		} else {
			mc.misses.Add(1)
		}
	}
	return m, ok
}

// put stores a computed match result, evicting at the entry cap.
func (mc *MatchCache) put(k matchKey, m []epdMatch) {
	mc.mu.Lock()
	e, ok := mc.entries[k]
	if !ok {
		e = &mcEntry{key: k}
		mc.entries[k] = e
	} else {
		mc.bytes -= e.size()
	}
	e.matches = m
	mc.bytes += e.size()
	mc.moveFront(e)
	mc.evict()
	mc.mu.Unlock()
}
