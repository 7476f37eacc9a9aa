// Incremental output: the dirty-subtree half of the end-to-end
// incremental tick. PR 8 made Elog evaluation cost proportional to the
// changed region of a document; this file does the same for the
// instance-base → XML mapping. Instances carry content-addressed
// identity hashes (built on dom.Tree's merkle subtree fingerprints),
// Diff computes the added/removed/unchanged delta between two ticks'
// bases, and Design.TransformIncremental reuses the previous tick's
// emitted xmlenc subtrees for every instance whose output hash is
// unchanged — splicing frozen subtrees into the fresh document instead
// of rebuilding them.
//
// Identity is content-addressed, not ID-based: the dedup key of Add
// (instKey) holds the parent's sequential ID and raw NodeIDs, both of
// which shift between ticks even for untouched regions, so cross-tick
// matching hangs off dom.SubtreeHash instead (fnv64; the collision risk is the
// same one PR 8 accepted for match reuse, and the differential tests
// and FuzzIncrementalTransform pin byte-identical output).

package pib

import (
	"slices"
	"strings"

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
// document instances). It deliberately excludes IDs, parent linkage,
// and raw node numbers, all of which are unstable across ticks, so an
// untouched region of a re-fetched page hashes identically. Not
// memoized: it is a few dozen multiplications over memoized subtree
// fingerprints, and a tick asks once per instance.
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

// outputHash extends ContentHash over the instance's subtree: the
// ordered children's output hashes are folded in emission order, so
// two instances with equal output hashes emit byte-identical XML under
// any fixed Design (element names, text emission, and tree-minor
// promotion are all functions of the pattern names and child hashes
// the fold covers). This is the cache key for emitted subtrees. It is
// memoized by instance id for the length of one TransformIncremental (a
// parent's fold and the child's own emission both ask); 0 is "not yet".
func (oc *OutputCache) outputHash(in *Instance) uint64 {
	if h := oc.oHash[in.ID]; h != 0 {
		return h
	}
	h := mix64(oc.cHash[in.ID], uint64(len(in.Children)))
	for _, c := range in.Children {
		h = mix64(h, oc.outputHash(c))
	}
	oc.oHash[in.ID] = h
	return h
}

// Delta is the instance-level difference between two ticks' bases.
// Added and Unchanged hold instances of the current base, Removed
// instances of the previous one; matching is a multiset pairing on
// ContentHash, so duplicate identical instances pair off one-to-one.
type Delta struct {
	Added, Removed, Unchanged []*Instance
}

// Diff computes the content-addressed instance delta from prev to cur.
// Cost is linear in the two bases' sizes.
func Diff(prev, cur *Base) Delta {
	var d Delta
	remain := make(map[uint64]int, prev.Count())
	prevBy := make(map[uint64][]*Instance, prev.Count())
	for in := range prev.each {
		h := in.ContentHash()
		remain[h]++
		prevBy[h] = append(prevBy[h], in)
	}
	for in := range cur.each {
		h := in.ContentHash()
		if remain[h] > 0 {
			remain[h]--
			d.Unchanged = append(d.Unchanged, in)
		} else {
			d.Added = append(d.Added, in)
		}
	}
	for h, list := range prevBy {
		for i := len(list) - remain[h]; i < len(list); i++ {
			d.Removed = append(d.Removed, list[i])
		}
	}
	return d
}

// commonHashes returns the size of the multiset intersection of two
// sorted hash lists — len(Diff(prev, cur).Unchanged) without the
// instance lists: Added and Removed are what is left of either side.
func commonHashes(prev, cur []uint64) int {
	n := 0
	for i, j := 0, 0; i < len(prev) && j < len(cur); {
		switch {
		case prev[i] < cur[j]:
			i++
		case prev[i] > cur[j]:
			j++
		default:
			n, i, j = n+1, i+1, j+1
		}
	}
	return n
}

// cachedSub is one reusable emitted subtree: the frozen element and
// its node count (for the reuse stats, so splicing does not re-walk).
type cachedSub struct {
	el    *xmlenc.Node
	nodes uint64
}

// OutputCache carries a wrapper's emitted-subtree cache and the
// previous tick's base across TransformIncremental calls. Not safe for
// concurrent use; each wrapper source owns one and transforms one tick
// at a time.
type OutputCache struct {
	prev, next map[uint64][]cachedSub
	// prevBase is the base last transformed and prevHashes the sorted
	// ContentHash of its instances, which the next tick's delta is
	// counted against.
	prevBase   *Base
	prevHashes []uint64
	// cHash and oHash are ContentHash and outputHash by instance id, for
	// the length of one transform.
	cHash, oHash []uint64

	reused, built                uint64
	added, removed, unchangedCnt uint64
}

// NewOutputCache returns an empty cache.
func NewOutputCache() *OutputCache {
	return &OutputCache{prev: map[uint64][]cachedSub{}}
}

// OutputStats are OutputCache's cumulative counters.
type OutputStats struct {
	// ReusedNodes / BuiltNodes count output XML nodes spliced from the
	// previous tick vs constructed fresh.
	ReusedNodes, BuiltNodes uint64
	// InstancesAdded / InstancesRemoved / InstancesUnchanged accumulate
	// the per-tick base deltas against the retained base: the sizes of
	// Diff's three lists, counted by a merge of the two bases' sorted
	// content hashes.
	InstancesAdded, InstancesRemoved, InstancesUnchanged uint64
	// BaseInstances / BaseBytes are the size of the retained base: its
	// Count, and its Bytes (the estimate Seal made) plus the sorted
	// content hashes kept beside it.
	BaseInstances, BaseBytes uint64
}

// Stats returns the cache's cumulative counters.
func (oc *OutputCache) Stats() OutputStats {
	var n, bytes int
	if oc.prevBase != nil {
		n, bytes = oc.prevBase.Count(), oc.prevBase.Bytes()+8*len(oc.prevHashes)
	}
	return OutputStats{
		BaseInstances:      uint64(n),
		BaseBytes:          uint64(bytes),
		ReusedNodes:        oc.reused,
		BuiltNodes:         oc.built,
		InstancesAdded:     oc.added,
		InstancesRemoved:   oc.removed,
		InstancesUnchanged: oc.unchangedCnt,
	}
}

// takePrev pops one cached subtree for the key, so a *Node is spliced
// into at most one position of the new document (the output stays a
// tree even when identical siblings repeat).
func (oc *OutputCache) takePrev(key uint64) (cachedSub, bool) {
	list := oc.prev[key]
	if len(list) == 0 {
		return cachedSub{}, false
	}
	sub := list[len(list)-1]
	if len(list) == 1 {
		delete(oc.prev, key)
	} else {
		oc.prev[key] = list[:len(list)-1]
	}
	return sub, true
}

// putNext records an emitted subtree for reuse by the next tick.
func (oc *OutputCache) putNext(key uint64, sub cachedSub) {
	oc.next[key] = append(oc.next[key], sub)
}

// TransformIncremental is Transform with cross-tick output reuse: the
// root and document-level elements are rebuilt every tick (they are a
// handful of nodes and carry per-tick attributes), while every
// non-auxiliary instance subtree whose output hash matches one emitted
// last tick is spliced in frozen from the cache. Freshly built
// subtrees are frozen before caching, so a subtree shared with an
// already-published document can never be mutated through the new one
// (xmlenc's lixtodebug guard enforces this in debug builds). Output is
// byte-identical to Transform on the same base.
func (d *Design) TransformIncremental(b *Base, oc *OutputCache) *xmlenc.Node {
	b.Seal()
	n := b.Count()
	scratch := make([]uint64, 2*n)
	oc.cHash, oc.oHash = scratch[:n], scratch[n:]
	for in := range b.each {
		oc.cHash[in.ID] = in.ContentHash()
	}
	hashes := slices.Clone(oc.cHash)
	slices.Sort(hashes)
	if oc.prevBase != nil {
		unchanged := commonHashes(oc.prevHashes, hashes)
		oc.added += uint64(n - unchanged)
		oc.removed += uint64(len(oc.prevHashes) - unchanged)
		oc.unchangedCnt += uint64(unchanged)
	}
	oc.next = make(map[uint64][]cachedSub, len(oc.prev)+8)

	rootName := d.RootName
	if rootName == "" {
		rootName = "lixto"
	}
	root := xmlenc.NewElement(rootName)
	for _, docInst := range b.Roots {
		var target *xmlenc.Node
		if d.Auxiliary[docInst.Pattern] {
			target = root
		} else {
			el := xmlenc.NewElement(d.elementName(docInst.Pattern))
			if d.EmitURL && docInst.URL != "" {
				el.SetAttr("url", docInst.URL)
			}
			root.Append(el)
			target = el
		}
		d.emitChildrenCached(docInst, target, oc)
	}

	oc.prev, oc.next, oc.cHash, oc.oHash = oc.next, nil, nil, nil
	oc.prevBase, oc.prevHashes = b, hashes
	return root
}

// emitChildrenCached mirrors emitChildren with the subtree cache in
// the path, returning the number of output nodes placed under out.
func (d *Design) emitChildrenCached(in *Instance, out *xmlenc.Node, oc *OutputCache) uint64 {
	var total uint64
	for _, c := range in.Children {
		if d.Auxiliary[c.Pattern] {
			// Tree minor: skip the node, promote its children.
			total += d.emitChildrenCached(c, out, oc)
			continue
		}
		key := oc.outputHash(c)
		if sub, ok := oc.takePrev(key); ok {
			out.Append(sub.el)
			oc.putNext(key, sub)
			oc.reused += sub.nodes
			total += sub.nodes
			continue
		}
		el := xmlenc.NewElement(d.elementName(c.Pattern))
		out.Append(el)
		nodes := d.emitChildrenCached(c, el, oc) + 1
		if (len(el.Children) == 0 || d.AlwaysText[c.Pattern]) && !d.SuppressText[c.Pattern] {
			el.Text = strings.TrimSpace(c.TextContent())
		}
		el.Freeze()
		oc.putNext(key, cachedSub{el: el, nodes: nodes})
		oc.built++
		total += nodes
	}
	return total
}
