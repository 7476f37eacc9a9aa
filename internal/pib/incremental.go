// Incremental maintenance and output: a maintained base pairs instances
// with the previous tick's by content (ContentHash, over dom.Tree's merkle
// fingerprints); TransformIncremental splices unchanged subtrees' output.

package pib

import (
	"repro/internal/pool"
	"repro/internal/xmlenc"
)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// mixString folds a string into an fnv64a hash, followed by a field
// separator so adjacent fields cannot alias.
func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	h ^= 0x1f
	h *= fnvPrime64
	return h
}

// mix64 folds a 64-bit value into an fnv64a hash.
func mix64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// ContentHash returns the instance's content-addressed local identity:
// pattern, kind, and content (the string value for string instances,
// the merkle subtree fingerprints of its nodes otherwise; the URL for
// document instances), never ids, parent links or node numbers, so an
// untouched region of a re-fetched page hashes identically.
func (in *Instance) ContentHash() uint64 {
	h := uint64(fnvOffset64)
	h = mixString(h, in.Pattern)
	h = mix64(h, uint64(in.Kind))
	if in.Kind == StringInstance {
		h = mixString(h, in.Text)
	} else {
		if in.Kind == DocumentInstance {
			h = mixString(h, in.URL)
		}
		for _, nd := range in.Nodes {
			if in.Doc != nil {
				h = mix64(h, in.Doc.SubtreeHash(nd))
			}
		}
	}
	return h
}

// outputHash extends ContentHash over the instance's subtree, folding
// the ordered children's output hashes, so two instances with equal
// output hashes emit byte-identical XML under any fixed Design: the key
// of emitted subtrees. An instance whose children hash as its
// counterpart's did takes the counterpart's hash, which the fold would
// give, unhashed. Memoized by id for one transform; 0 is "not yet".
func (oc *OutputCache) outputHash(in *Instance) uint64 {
	out, prevOut := oc.cur.out, oc.last.out
	if h := out[in.ID]; h != 0 {
		return h
	}
	var src *Instance
	if int(in.ID) < len(oc.pairs) {
		src = oc.pairs[in.ID]
	}
	same := src != nil && len(src.Children) == len(in.Children) && prevOut[src.ID] != 0
	for i, c := range in.Children {
		h := oc.outputHash(c)
		same = same && h == prevOut[src.Children[i].ID]
	}
	var h uint64
	if same {
		h = prevOut[src.ID]
	} else {
		h = mix64(in.ContentHash(), uint64(len(in.Children)))
		for _, c := range in.Children {
			h = mix64(h, out[c.ID])
		}
	}
	out[in.ID] = h
	return h
}

// pairing pairs a maintained base's instances one-to-one with prev's: a
// graft with the one it copies, others on ask by equal ContentHash.
// Pairings are pooled by the size class of prev (newPairing, release).
type pairing struct {
	prev *Base
	of   []*Instance // counterpart by id
	used []bool      // paired instances of prev, by id
	// byHash holds, per pattern asked about, prev's unpaired instances.
	byHash map[string]map[uint64][]*Instance
	n      int // instances paired
}

var pairings pool.Classes[pairing]

// NewBaseFrom returns an empty base maintained from prev, a sealed base
// of the same program over earlier documents, its dedup table sized for
// about fresh derived (not grafted) instances. Graft copies prev's
// derivations into it, Counterpart pairs its instances with prev's, and
// TransformIncremental through the cache whose Base is prev uses both.
// The base reads prev until it is transformed or recycled: prev must
// not be recycled before.
func NewBaseFrom(prev *Base, fresh int) *Base {
	b := &Base{hint: prev.Count(), pairs: newPairing(prev)}
	b.drawTable(fresh)
	b.drawStore(prev.Count())
	b.drawLists(prev.Count())
	for p, list := range prev.byPat {
		b.byPat[p] = cut(&b.ptrs, len(list))
	}
	return b
}

// newPairing returns an empty pairing with prev, drawn from the pool
// of prev's size class when it has one.
func newPairing(prev *Base) *pairing {
	size, class := pool.SizeClass(prev.Count())
	p := pairings.Get(class)
	if p == nil {
		p = &pairing{of: make([]*Instance, size), used: make([]bool, size), byHash: map[string]map[uint64][]*Instance{}}
	} else {
		p.of, p.used = p.of[:cap(p.of)], p.used[:cap(p.used)]
		clear(p.of)
		clear(p.used)
		clear(p.byHash)
		p.n = 0
	}
	p.prev = prev
	return p
}

// release gives p to the pool.
func (p *pairing) release() {
	clear(p.byHash)
	p.prev = nil
	_, class := pool.Floor(min(cap(p.of), cap(p.used)))
	pairings.Put(class, p)
}

// pair records c, an instance of the previous base, as in's counterpart.
func (p *pairing) pair(in, c *Instance) {
	if int(in.ID) >= len(p.of) {
		p.of = append(p.of, make([]*Instance, int(in.ID)+1)...)
	}
	p.of[in.ID], p.used[c.ID] = c, true
	p.n++
}

// Counterpart returns in's counterpart in the base b is maintained from
// (nil: none, or b is not maintained): the instance a grafted in copies,
// else an unpaired one of equal ContentHash, paired with in for good.
func (b *Base) Counterpart(in *Instance) *Instance {
	p := b.pairs
	if p == nil {
		return nil
	}
	if int(in.ID) < len(p.of) && p.of[in.ID] != nil {
		return p.of[in.ID]
	}
	idx := p.byHash[in.Pattern]
	if idx == nil {
		// Only unpaired instances are indexed: under grafting, most of
		// a pattern's previous instances are paired before it is asked.
		prev, free := p.prev.byPat[in.Pattern], 0
		for _, c := range prev {
			if !p.used[c.ID] {
				free++
			}
		}
		idx = make(map[uint64][]*Instance, free)
		for i, c := range prev {
			if p.used[c.ID] {
				continue
			}
			if h := c.ContentHash(); idx[h] == nil {
				idx[h] = prev[i : i+1 : i+1] // no allocation for a hash's first instance
			} else {
				idx[h] = append(idx[h], c)
			}
		}
		p.byHash[in.Pattern] = idx
	}
	h := in.ContentHash()
	list := idx[h]
	for len(list) > 0 && p.used[list[0].ID] {
		list = list[1:]
	}
	if len(list) == 0 {
		return nil
	}
	idx[h] = list[1:]
	p.pair(in, list[0])
	return list[0]
}

// Graft adds under parent a copy of src, a child of parent's counterpart,
// paired with src, its nodes shifted by parent's offset (in a document-
// ordered tree a subtree moves as one block). No instance may equal it.
func (b *Base) Graft(parent, src *Instance) *Instance {
	in := b.alloc(&Instance{Pattern: src.Pattern, URL: parent.URL, Text: src.Text, Doc: parent.Doc,
		Parent: parent, Kind: src.Kind, Rule: src.Rule})
	in.Nodes = cut(&b.nodes, len(src.Nodes))
	for _, nd := range src.Nodes {
		in.Nodes = append(in.Nodes, nd+parent.Nodes[0]-src.Parent.Nodes[0])
	}
	if parent.Children == nil {
		parent.Children = cut(&b.ptrs, len(src.Parent.Children))
	}
	b.link(in)
	if !b.pairs.used[src.ID] {
		b.pairs.pair(in, src)
	}
	return in
}

// cut returns an empty slice with room for n, taken from the slab s.
func cut[T any](s *[]T, n int) []T {
	if cap(*s)-len(*s) < n {
		*s = make([]T, 0, max(64, n))
	}
	*s = (*s)[:len(*s)+n]
	return (*s)[len(*s)-n : len(*s)-n : len(*s)]
}

// Delta is the instance-level difference between two ticks' bases, the
// current one's (Added, Unchanged) and the previous one's (Removed).
type Delta struct {
	Added, Removed, Unchanged []*Instance
}

// Diff computes the content-addressed instance delta from prev to cur,
// pairing every instance of cur as Counterpart does.
func Diff(prev, cur *Base) Delta {
	var d Delta
	p := &Base{pairs: newPairing(prev)}
	for in := range cur.each {
		if p.Counterpart(in) != nil {
			d.Unchanged = append(d.Unchanged, in)
		} else {
			d.Added = append(d.Added, in)
		}
	}
	for in := range prev.each {
		if !p.pairs.used[in.ID] {
			d.Removed = append(d.Removed, in)
		}
	}
	p.pairs.release()
	return d
}

type cachedSub struct { // a reusable emitted subtree: its frozen element and size
	el    *xmlenc.Node
	nodes uint64
}

// generation is what one transform through an OutputCache writes and
// the next one reads: the base's output hashes by instance id, and its
// emitted subtrees by output hash, their lists cut from slab. room is
// the most entries subs was made for or has held. Generations are
// pooled by the size of out, made to measure.
type generation struct {
	out  []uint64
	subs map[uint64][]cachedSub
	slab []cachedSub
	room int
}

var generations pool.Classes[generation]

// drawGeneration returns an empty generation for a base of n instances
// that emits about k subtrees, a released one of about n if there is.
// Its map and slab are remade when they are far from k: a map keeps
// the room it grew to, and a cold render emits many more subtrees than
// the maintained ones after it.
func drawGeneration(n, k int) *generation {
	g := generations.Near(n)
	if g == nil {
		g = &generation{out: make([]uint64, 0, max(n, 8))}
	}
	if cap(g.out) < n {
		g.out = make([]uint64, n)
	}
	if g.subs == nil || g.room > k+k/4 {
		g.subs, g.room = make(map[uint64][]cachedSub, k), k
	}
	if cap(g.slab) < k || cap(g.slab) > k+k/4 {
		g.slab = make([]cachedSub, 0, k)
	}
	g.out, g.slab = g.out[:n], g.slab[:0]
	clear(g.out)
	clear(g.subs)
	return g
}

// release empties g and gives it to the pool.
func (g *generation) release() {
	g.room = max(g.room, len(g.subs))
	clear(g.subs)
	clear(g.slab[:cap(g.slab)])
	if cap(g.out) >= 8 {
		_, class := pool.Floor(cap(g.out))
		generations.Put(class, g)
	}
}

// OutputCache carries a wrapper's emitted-subtree cache and previous
// base across TransformIncremental calls. Not safe for concurrent use.
type OutputCache struct {
	// prevBase is the base last transformed and last the generation its
	// transform wrote; cur is the one a transform writes, and pairs
	// (counterparts in prevBase, by id) the one it reads them by.
	prevBase  *Base
	last, cur *generation
	pairs     []*Instance

	reused, built                uint64
	added, removed, unchangedCnt uint64
}

// NewOutputCache returns an empty cache.
func NewOutputCache() *OutputCache {
	return &OutputCache{last: &generation{}}
}

// Base returns the base last transformed (nil before the first): the
// previous base the next evaluation is maintained from.
func (oc *OutputCache) Base() *Base { return oc.prevBase }

// OutputStats are OutputCache's cumulative counters.
type OutputStats struct {
	// ReusedNodes / BuiltNodes count output XML nodes spliced from the
	// previous tick vs constructed fresh.
	ReusedNodes, BuiltNodes uint64
	// InstancesAdded / InstancesRemoved / InstancesUnchanged accumulate
	// the per-tick deltas against the retained base as the maintained
	// evaluation paired them (Counterpart): an unchanged instance has a
	// counterpart, an added one none, a removed one was left unpaired. A
	// base not maintained from the retained one is all added.
	InstancesAdded, InstancesRemoved, InstancesUnchanged uint64
	// BaseInstances / BaseBytes are the size of the retained base: Count,
	// and Bytes (Seal's estimate) plus the output hashes kept beside it.
	BaseInstances, BaseBytes uint64
}

// Stats returns the cache's cumulative counters.
func (oc *OutputCache) Stats() OutputStats {
	st := OutputStats{ReusedNodes: oc.reused, BuiltNodes: oc.built, InstancesAdded: oc.added, InstancesRemoved: oc.removed, InstancesUnchanged: oc.unchangedCnt}
	if oc.prevBase != nil {
		st.BaseInstances, st.BaseBytes = uint64(oc.prevBase.Count()), uint64(oc.prevBase.Bytes()+8*len(oc.last.out))
	}
	return st
}

// put records an emitted subtree for the next tick.
func (oc *OutputCache) put(key uint64, sub cachedSub) {
	g := oc.cur
	if list := g.subs[key]; list != nil {
		g.subs[key] = append(list, sub)
	} else {
		g.subs[key] = append(cut(&g.slab, 1), sub)
	}
}

// TransformIncremental is Transform with cross-tick output reuse: the
// root and document elements are rebuilt, and every non-auxiliary
// subtree whose output hash matches one emitted last tick is spliced in
// frozen from the cache (fresh ones are frozen before caching, so no
// published document is mutated through a later one). A base maintained
// from the cache's Base inherits its paired subtrees' hashes and counts
// its delta from the pairs. Output is byte-identical to Transform. The
// base becomes the cache's Base, letting go of the one it came from and
// of its own pairing with it; the generation the previous transform
// wrote goes to the pool the next transform draws from.
func (d *Design) TransformIncremental(b *Base, oc *OutputCache) *xmlenc.Node {
	b.Seal()
	n, paired := b.Count(), 0
	p := b.pairs
	b.pairs = nil
	if p != nil && p.prev == oc.prevBase {
		oc.pairs, paired = p.of, p.n
	}
	if oc.prevBase != nil {
		oc.added += uint64(n - paired)
		oc.removed += uint64(oc.prevBase.Count() - paired)
		oc.unchangedCnt += uint64(paired)
	}
	oc.cur = drawGeneration(n, len(oc.last.subs)+8)

	root := d.render(b, oc)
	if p != nil {
		p.release()
	}
	oc.last.release()
	oc.last, oc.cur, oc.pairs = oc.cur, nil, nil
	oc.prevBase = b
	return root
}
