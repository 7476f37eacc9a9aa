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

// store is the storage a base is built into and Recycle gives back: an
// instance slab and the pattern map. Slabs are made to measure, and
// the next base of about as many instances draws them (pool.Near).
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
	// storeDraws counts the stores bases took from the pool.
	storeDraws atomic.Int64
)

// drawStore gives b, a new base, storage for about n instances: a
// released store of about that size, else one made to measure. A slab
// that falls short continues in chunks made to measure (alloc).
func (b *Base) drawStore(n int) {
	st := stores.Near(n)
	if st == nil {
		st = &store{slab: make([]Instance, 0, max(n, 64)), byPat: make(map[string][]*Instance)}
	} else {
		storeDraws.Add(1)
		clear(st.byPat)
	}
	b.st, b.slab, b.byPat = st, st.slab[:0], st.byPat
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
	if st := b.st; st != nil {
		// Only the slab's first next instances can have been written.
		clear(st.slab[:min(int(b.next), cap(st.slab))])
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
