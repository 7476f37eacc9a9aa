package pib

import (
	"sync/atomic"

	"repro/internal/dom"
	"repro/internal/pool"
)

// Recycling. The base of a polled wrapper lives about one tick: the
// next tick's base is maintained from it (NewBaseFrom) and rendered
// through the output cache, after which nothing reads it. Its owner
// then calls Recycle, and the storage it was built into goes to pools
// the next bases of a similar size draw from, instead of to the
// collector: the instance slab and the pattern map (a store), the slabs
// a maintained base cuts its pattern, child and node lists from, and
// the pairing with its predecessor. The dedup table goes back when the
// base is sealed, and an output cache's generations when the next
// transform has read them. Everything is kept in sync.Pools by the size
// classes of internal/pool, so a collection empties the pools and
// nothing is retained beside the live bases.

// store is a chunk of the storage a base is built into and Recycle
// gives back: an instance slab and, in a base's first chunk, the
// pattern map. A base takes its first chunk for as many instances as
// it expects, and a slab that falls short continues in chunks for what
// it still expects, else for as many as its chunks hold, so the chunks
// of a base with nothing to size it (a fresh wrapper's first) double. Each chunk is the largest the pool has of at most its
// size and at least half of it (pool.Largest), else one made to
// measure.
type store struct {
	slab  []Instance
	byPat map[string][]*Instance
}

// lists is the storage of a maintained base's lists (NewBaseFrom): a
// pointer slab twice its predecessor's size for its pattern lists and
// the child lists of grafted parents, and a node slab as long for
// grafted instances' nodes. A cold base grows its lists by append, and
// would only retain these unused.
type lists struct {
	ptrs  []*Instance
	nodes []dom.NodeID
}

// table is a dedup table with its string ids, pooled by the size class
// of its entry count from Seal to the next base's drawTable.
type table struct {
	all map[instKey]*Instance
	ids map[string]uint32
}

var (
	stores    pool.Classes[store]
	listSlabs pool.Classes[lists]
	tables    pool.Classes[table]
	// storeDraws counts the bases that took a chunk from the pool.
	storeDraws atomic.Int64
)

// drawStore gives b, a new base, its first chunk, for about n
// instances.
func (b *Base) drawStore(n int) {
	st := b.drawChunk(n)
	if st.byPat == nil {
		st.byPat = make(map[string][]*Instance)
	} else {
		clear(st.byPat)
	}
	b.chunks = append(b.chunks[:0], st)
	b.slab, b.byPat = st.slab[:0], st.byPat
}

// growSlab continues b's full instance slab in a new chunk.
func (b *Base) growSlab() {
	n := b.hint - int(b.next)
	if n <= 0 {
		n = 0
		for _, st := range b.chunks {
			n += cap(st.slab)
		}
	}
	st := b.drawChunk(n)
	b.chunks = append(b.chunks, st)
	b.slab = st.slab[:0]
}

// drawChunk returns a chunk for about n instances (at least 64), and
// counts b in storeDraws at the first that came from the pool.
func (b *Base) drawChunk(n int) *store {
	n = max(n, 64)
	if st := stores.Largest(n); st != nil {
		if !b.drew {
			b.drew = true
			storeDraws.Add(1)
		}
		return st
	}
	return &store{slab: make([]Instance, 0, n)}
}

// drawLists gives b, a new base maintained from one of n instances,
// released list slabs of about that size, else ones made to measure.
func (b *Base) drawLists(n int) {
	l := listSlabs.Near(n)
	if l == nil {
		l = &lists{ptrs: make([]*Instance, 0, 2*max(n, 8)), nodes: make([]dom.NodeID, 0, max(n, 8))}
	}
	b.ls, b.ptrs, b.nodes = l, l.ptrs[:0], l.nodes[:0]
}

// drawTable gives b, a new base, an empty dedup table for about n
// instances, a released one of n's size class if there is one.
func (b *Base) drawTable(n int) {
	size, class := pool.SizeClass(n)
	t := tables.Get(class)
	if t == nil {
		t = &table{all: make(map[instKey]*Instance, size), ids: map[string]uint32{}}
	} else {
		clear(t.all)
		clear(t.ids)
	}
	b.tab, b.all, b.ids = t, t.all, t.ids
}

// releaseTable drops b's dedup table, giving it to the pool when it
// was drawn from one.
func (b *Base) releaseTable() {
	if t := b.tab; t != nil {
		_, class := pool.SizeClass(len(t.all))
		clear(t.all)
		clear(t.ids)
		tables.Put(class, t)
	}
	b.tab, b.all, b.ids = nil, nil, nil
}

// Recycle gives the storage b was built into to the pools the next
// bases draw from, and empties b: a later read finds no instance,
// pattern or root, and an evaluation maintained from b falls back to a
// full one. Instances of b are not emptied, but their storage is
// reused, so none may be read afterwards. The owner calls Recycle once
// nothing reads b, its instances, or a base maintained from b that has
// not been transformed or recycled yet; calls after the first do
// nothing.
func (b *Base) Recycle() {
	if p := b.pairs; p != nil {
		p.release()
	}
	b.releaseTable()
	for i, st := range b.chunks {
		// Every chunk but the last is full.
		if i == len(b.chunks)-1 {
			clear(st.slab[:len(b.slab)])
		} else {
			clear(st.slab[:cap(st.slab)])
		}
		clear(st.byPat)
		_, class := pool.Floor(cap(st.slab))
		stores.Put(class, st)
	}
	if l := b.ls; l != nil {
		clear(l.ptrs[:cap(l.ptrs)])
		_, class := pool.Floor(cap(l.nodes))
		listSlabs.Put(class, l)
	}
	*b = Base{}
}
