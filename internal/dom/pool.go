package dom

import (
	"sync/atomic"

	"repro/internal/pool"
)

// Recycling. A tree of a polled page lives one tick: the next version is
// built while it is still read, and it is dropped as soon as that
// version has superseded it. A tree made by Adopt is owned: its owner
// calls Recycle once no goroutine reads it any more, and the arrays it
// was built into go to a pool the next build of a similar size draws
// from, instead of to the collector. Full builds (NewFromSource),
// spliced builds (Splice), Reindex and the subtree-hash pass all draw
// from it. The label and kind bitsets are not recycled: LabelBits and
// KindBits hand them out.

// minPooled is the smallest node count whose arrays are pooled; smaller
// trees are made to measure, as before.
const minPooled = 256

// columns is the storage a tree gives back when it is recycled: the
// node columns, the five-id block, the pre/post/size index, the subtree
// hashes and the attribute table, each at full length. In the pool of
// a size class, the node columns hold at least the class's size of
// nodes, and so do the index and the hashes unless they are nil (a tree
// recycled before it was indexed or hashed); a pooled set still holds
// the last tree's values.
type columns struct {
	kind    []Kind
	labelID []LabelID
	payload []span
	ids     []NodeID // parent, firstChild, lastChild, nextSibling, prevSibling
	idx     []int32  // pre, post, size
	subHash []uint64
	attrTab []attrEntry
}

// pools holds released column sets by size class (pool.SizeClass).
var pools pool.Classes[columns]

// poolDraws counts the column sets builds took from the pools.
var poolDraws atomic.Int64

// drawColumns builds t, an empty tree, into a released column set with
// room for n nodes, and reports whether the pool had one.
func (t *Tree) drawColumns(n int) bool {
	_, class := pool.SizeClass(n)
	c := pools.Get(class)
	if c == nil {
		return false
	}
	poolDraws.Add(1)
	t.kind, t.labelID, t.payload = c.kind[:0], c.labelID[:0], c.payload[:0]
	t.ids = c.ids
	t.setIDs(c.ids)
	if c.idx != nil {
		t.setIndex(c.idx, 0)
	}
	t.subHash, t.attrTab = c.subHash[:0], c.attrTab[:0]
	return true
}

// setIDs partitions ids, a block of five equal columns, into the five
// structural id slices of an empty tree. Full slice expressions make
// growth past the block reallocate the overflowing slice privately
// instead of clobbering its neighbour.
func (t *Tree) setIDs(ids []NodeID) {
	n := len(ids) / 5
	t.parent = ids[0:0:n]
	t.firstChild = ids[n : n : 2*n]
	t.lastChild = ids[2*n : 2*n : 3*n]
	t.nextSibling = ids[3*n : 3*n : 4*n]
	t.prevSibling = ids[4*n : 4*n : 5*n]
}

// setIndex partitions idx, a block of three equal columns, into pre,
// post and size of length l, and keeps it for recycling.
func (t *Tree) setIndex(idx []int32, l int) {
	n := len(idx) / 3
	t.idx = idx
	t.pre, t.post, t.size = idx[0:l:n], idx[n:n+l:2*n], idx[2*n:2*n+l:3*n]
}

// Adopt returns a private tree over t's source and deferred build, or
// nil unless t is a tree from NewDeferred that is not built yet. The
// private tree is built on its own first use, like t; t is left as it
// is, unbuilt, for whoever else holds it. The caller owns the private
// tree: once nothing reads it any more, Recycle gives its arrays to the
// next build.
func Adopt(t *Tree) *Tree {
	if !t.pending.Load() {
		return nil
	}
	t.warmMu.Lock()
	defer t.warmMu.Unlock()
	if !t.pending.Load() {
		return nil
	}
	o := &Tree{src: t.src, build: t.build, srcKey: t.srcKey, owned: true}
	o.pending.Store(true)
	return o
}

// Recycle gives the arrays of a tree from Adopt back to the pool the
// next builds draw from, and empties the tree: every later read of a
// node panics rather than read another page's. The owner calls it once
// no goroutine reads the tree or will read it; calls after the first,
// and calls on a tree Adopt did not make or that was never built, do
// nothing.
func (t *Tree) Recycle() {
	t.warmMu.Lock()
	defer t.warmMu.Unlock()
	if !t.owned || t.pending.Load() {
		return
	}
	t.owned = false
	t.giveBack()
	t.kind, t.labelID, t.payload = nil, nil, nil
	t.parent, t.firstChild, t.lastChild, t.nextSibling, t.prevSibling = nil, nil, nil, nil, nil
	t.attrTab, t.side, t.labelNames, t.labelIndex, t.marks = nil, nil, nil, nil, nil
	t.pre, t.post, t.size, t.subHash = nil, nil, nil, nil
	t.labelBits, t.kindBits = nil, [3][]uint64{}
}

// giveBack puts the arrays t was built into in the pool of the largest
// size class they all hold, and forgets them. Only a tree whose id
// block came from alloc's pooled path has any to give.
func (t *Tree) giveBack() {
	if t.ids == nil {
		return
	}
	c := &columns{kind: t.kind[:cap(t.kind)], labelID: t.labelID[:cap(t.labelID)], payload: t.payload[:cap(t.payload)],
		ids: t.ids, idx: t.idx, subHash: t.subHash[:cap(t.subHash)], attrTab: t.attrTab[:cap(t.attrTab)]}
	t.ids, t.idx = nil, nil
	n := min(len(c.kind), len(c.labelID), len(c.payload), len(c.ids)/5)
	size, class := pool.Floor(n)
	if len(c.idx)/3 < size {
		c.idx = nil
	}
	if len(c.subHash) < size {
		c.subHash = nil
	}
	pools.Put(class, c)
}
