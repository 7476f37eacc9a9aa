// Package nodeset provides linear-time set-level operations over tree
// axes: given the characteristic vector of a node set S, each function
// computes {y : ∃x∈S axis(x,y)} (or the converse) in at most one
// O(|dom|) sweep. These are the primitives behind both the linear-time
// Core XPath evaluator (Theorems 4.1/4.2: O(|D|·|Q|) combined
// complexity) and the acyclic conjunctive-query evaluator.
//
// Sets are packed bitsets: 64 nodes per machine word, so the boolean
// operations (And, Or, Not, AndNot) process 64 nodes per instruction
// and membership sweeps visit only the words that contain members. The
// axis images exploit two invariants of dom.Tree: parents and previous
// siblings always carry smaller NodeIDs than their children/right
// siblings (trees are built by appending), so the transitive sweeps are
// plain ascending/descending id loops, and Following/Preceding reduce
// to prefix-min/suffix-max scans over preorder numbers. On a tree in
// document order the descendant axes read a node's subtree as its id
// window [x, x+SubtreeSize(x)), as Grust's XPath Accelerator reads it
// from pre/size numbers (SIGMOD 2002): they visit the nodes of the
// context's subtrees and no others, so matching under a few dirty
// sections of a page costs those sections plus |dom|/64 words.
package nodeset

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/dom"
)

// visited counts the nodes the axes a matcher descends by (Children,
// Descendants, DescendantsOrSelf) have visited, over the whole process:
// a sweep every node of the tree, a window its nodes, Children the
// context and their children.
var visited atomic.Int64

// Visited returns how many nodes Children, Descendants and
// DescendantsOrSelf have visited so far, over every call of the
// process: the work measure of a tick's matching, which tests compare
// across page sizes.
func Visited() int64 { return visited.Load() }

// Set is the characteristic bitset of a node set, indexed by NodeID
// (bit i of word i/64). The zero value is an empty set over an empty
// universe. Mutating methods (And, Or, Not, Add, …) update the receiver
// in place and return it for chaining; the word slice is shared between
// copies, exactly as the former []bool representation was.
type Set struct {
	words []uint64
	n     int // universe size |dom|
}

// New returns an empty set sized for t.
func New(t *dom.Tree) Set { return NewSized(t.Size()) }

// NewSized returns an empty set over a universe of n nodes.
func NewSized(n int) Set { return Set{words: make([]uint64, (n+63)/64), n: n} }

// FromWords builds a set over t's nodes by copying a raw word vector
// (e.g. a dom label bitset). Extra bits beyond the universe must be
// zero, which holds for all vectors produced by dom.
func FromWords(t *dom.Tree, w []uint64) Set {
	s := New(t)
	copy(s.words, w)
	return s
}

// Full returns the set of all nodes of t.
func Full(t *dom.Tree) Set {
	s := New(t)
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
	return s
}

// Singleton returns {n}.
func Singleton(t *dom.Tree, n dom.NodeID) Set {
	s := New(t)
	s.Add(n)
	return s
}

// FromSlice builds a Set from a node slice.
func FromSlice(t *dom.Tree, nodes []dom.NodeID) Set {
	s := New(t)
	for _, n := range nodes {
		s.Add(n)
	}
	return s
}

// Len returns the universe size the set ranges over.
func (s Set) Len() int { return s.n }

// Has reports whether n is a member.
func (s Set) Has(n dom.NodeID) bool {
	return s.words[uint32(n)>>6]&(1<<(uint32(n)&63)) != 0
}

// Add inserts n.
func (s Set) Add(n dom.NodeID) {
	s.words[uint32(n)>>6] |= 1 << (uint32(n) & 63)
}

// Remove deletes n.
func (s Set) Remove(n dom.NodeID) {
	s.words[uint32(n)>>6] &^= 1 << (uint32(n) & 63)
}

// trim clears the unused bits of the last word (kept as an invariant by
// every operation, so Count/Empty/Nodes never see ghost members).
func (s Set) trim() { TrimWords(s.words, s.n) }

// ForEach calls f for every member in ascending NodeID order.
func (s Set) ForEach(f func(dom.NodeID)) { ForEachWord(s.words, f) }

// The raw-word helpers below are shared with consumers that manage
// their own word vectors over NodeIDs (the mdatalog evaluator's
// per-predicate truth store, the dom label bitsets) so the packed
// representation has a single home.

// ForEachWord calls f for every set bit of a raw word vector, in
// ascending NodeID order.
func ForEachWord(words []uint64, f func(dom.NodeID)) {
	for wi, w := range words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(dom.NodeID(wi<<6 + b))
			w &= w - 1
		}
	}
}

// MembersOf returns the set bits of a raw word vector as NodeIDs in
// ascending order, preallocated to the population count; nil when
// empty.
func MembersOf(words []uint64) []dom.NodeID {
	count := 0
	for _, w := range words {
		count += bits.OnesCount64(w)
	}
	if count == 0 {
		return nil
	}
	out := make([]dom.NodeID, 0, count)
	ForEachWord(words, func(n dom.NodeID) { out = append(out, n) })
	return out
}

// TrimWords clears the bits at positions >= n in the last word of a
// raw word vector.
func TrimWords(words []uint64, n int) {
	if r := uint(n) & 63; r != 0 && len(words) > 0 {
		words[len(words)-1] &= (1 << r) - 1
	}
}

// Nodes returns the members in document order. The output is
// preallocated from Count; for trees whose NodeIDs coincide with
// document order (every top-down-built tree) the ascending bit sweep is
// already sorted and the sort pass is skipped.
func (s Set) Nodes(t *dom.Tree) []dom.NodeID {
	c := s.Count()
	if c == 0 {
		return nil
	}
	out := make([]dom.NodeID, 0, c)
	s.ForEach(func(n dom.NodeID) { out = append(out, n) })
	if t.DocOrdered() {
		return out
	}
	return t.SortDocOrder(out)
}

// Count returns |s|.
func (s Set) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone copies the set.
func (s Set) Clone() Set {
	return Set{words: append([]uint64(nil), s.words...), n: s.n}
}

// And intersects into s and returns it.
func (s Set) And(o Set) Set {
	for i := range s.words {
		s.words[i] &= o.words[i]
	}
	return s
}

// Or unions into s and returns it.
func (s Set) Or(o Set) Set {
	for i := range s.words {
		s.words[i] |= o.words[i]
	}
	return s
}

// OrWords unions a raw word vector (e.g. a dom label bitset) into s and
// returns it. The vector must cover the same universe.
func (s Set) OrWords(words []uint64) Set {
	for i := range s.words {
		s.words[i] |= words[i]
	}
	return s
}

// AndWords intersects s with a raw word vector and returns it.
func (s Set) AndWords(words []uint64) Set {
	for i := range s.words {
		s.words[i] &= words[i]
	}
	return s
}

// AndNot removes o's members from s and returns it.
func (s Set) AndNot(o Set) Set {
	for i := range s.words {
		s.words[i] &^= o.words[i]
	}
	return s
}

// Not complements into s and returns it.
func (s Set) Not() Set {
	for i := range s.words {
		s.words[i] = ^s.words[i]
	}
	s.trim()
	return s
}

// Equal reports whether two sets over the same universe have the same
// members.
func Equal(a, b Set) bool {
	if a.n != b.n {
		return false
	}
	for i := range a.words {
		if a.words[i] != b.words[i] {
			return false
		}
	}
	return true
}

// Children returns {y : parent(y) ∈ s}.
func Children(t *dom.Tree, s Set) Set {
	out := New(t)
	n := 0
	s.ForEach(func(x dom.NodeID) {
		n++
		for c := t.FirstChild(x); c != dom.Nil; c = t.NextSibling(c) {
			out.Add(c)
			n++
		}
	})
	visited.Add(int64(n))
	return out
}

// Parents returns {x : some child of x ∈ s}.
func Parents(t *dom.Tree, s Set) Set {
	out := New(t)
	s.ForEach(func(y dom.NodeID) {
		if p := t.Parent(y); p != dom.Nil {
			out.Add(p)
		}
	})
	return out
}

// Descendants returns {y : some proper ancestor of y ∈ s}. On a tree
// in document order it fills each member's window (descendantWindows);
// on any other, one ascending sweep propagates membership down the
// tree, parents always preceding children in NodeID order.
func Descendants(t *dom.Tree, s Set) Set {
	if t.DocOrdered() {
		return descendantWindows(t, s, 1)
	}
	out := New(t)
	for i := 0; i < s.n; i++ {
		y := dom.NodeID(i)
		if p := t.Parent(y); p != dom.Nil && (s.Has(p) || out.Has(p)) {
			out.Add(y)
		}
	}
	visited.Add(int64(s.n))
	return out
}

// DescendantsOrSelf returns Descendants(s) ∪ s.
func DescendantsOrSelf(t *dom.Tree, s Set) Set {
	if t.DocOrdered() {
		return descendantWindows(t, s, 0)
	}
	return Descendants(t, s).Or(s)
}

// descendantWindows is the descendant axis of a tree in document order,
// where x's subtree is the id window [x, x+SubtreeSize(x)): it fills
// [x+skip, end) for each member x in ascending order and resumes the
// search for members at end, so a member inside a window already
// filled, whose own window nests in it, is never looked at. skip is 1
// for Descendants and 0 for DescendantsOrSelf.
func descendantWindows(t *dom.Tree, s Set, skip int) Set {
	out := New(t)
	n := 0
	for x := s.next(0); x >= 0; {
		end := x + t.SubtreeSize(dom.NodeID(x))
		out.fill(x+skip, end)
		n += end - x
		x = s.next(end)
	}
	visited.Add(int64(n))
	return out
}

// next returns the least member at or after i, or -1 when there is
// none.
func (s Set) next(i int) int {
	wi := i >> 6
	if wi >= len(s.words) {
		return -1
	}
	w := s.words[wi] &^ (1<<(uint(i)&63) - 1)
	for w == 0 {
		if wi++; wi == len(s.words) {
			return -1
		}
		w = s.words[wi]
	}
	return wi<<6 + bits.TrailingZeros64(w)
}

// fill adds every node of [lo, hi) a word at a time.
func (s Set) fill(lo, hi int) {
	if lo >= hi {
		return
	}
	first, last := lo>>6, (hi-1)>>6
	head, tail := ^uint64(0)<<(uint(lo)&63), ^uint64(0)>>(63-(uint(hi-1)&63))
	if first == last {
		s.words[first] |= head & tail
		return
	}
	s.words[first] |= head
	for i := first + 1; i < last; i++ {
		s.words[i] = ^uint64(0)
	}
	s.words[last] |= tail
}

// Ancestors returns {x : some proper descendant of x ∈ s}; the converse
// descending sweep.
func Ancestors(t *dom.Tree, s Set) Set {
	out := New(t)
	for i := s.n - 1; i >= 0; i-- {
		y := dom.NodeID(i)
		if p := t.Parent(y); p != dom.Nil && (s.Has(y) || out.Has(y)) {
			out.Add(p)
		}
	}
	return out
}

// AncestorsOrSelf returns Ancestors(s) ∪ s.
func AncestorsOrSelf(t *dom.Tree, s Set) Set { return Ancestors(t, s).Or(s) }

// NextSiblings returns {y : prevsibling(y) ∈ s}.
func NextSiblings(t *dom.Tree, s Set) Set {
	out := New(t)
	s.ForEach(func(x dom.NodeID) {
		if y := t.NextSibling(x); y != dom.Nil {
			out.Add(y)
		}
	})
	return out
}

// PrevSiblings returns {x : nextsibling(x) ∈ s}.
func PrevSiblings(t *dom.Tree, s Set) Set {
	out := New(t)
	s.ForEach(func(y dom.NodeID) {
		if x := t.PrevSibling(y); x != dom.Nil {
			out.Add(x)
		}
	})
	return out
}

// FollowingSiblings returns {y : some left sibling of y ∈ s}. Left
// siblings precede right siblings in NodeID order, so an ascending
// sweep propagates along sibling chains.
func FollowingSiblings(t *dom.Tree, s Set) Set {
	out := New(t)
	for i := 0; i < s.n; i++ {
		y := dom.NodeID(i)
		if p := t.PrevSibling(y); p != dom.Nil && (s.Has(p) || out.Has(p)) {
			out.Add(y)
		}
	}
	return out
}

// PrecedingSiblings returns {x : some right sibling of x ∈ s}.
func PrecedingSiblings(t *dom.Tree, s Set) Set {
	out := New(t)
	for i := s.n - 1; i >= 0; i-- {
		y := dom.NodeID(i)
		if p := t.PrevSibling(y); p != dom.Nil && (s.Has(y) || out.Has(y)) {
			out.Add(p)
		}
	}
	return out
}

// Following returns {y : ∃x∈s Following(x,y)} — nodes starting after
// the subtree of some member. y follows some member iff a member with a
// smaller preorder number has a smaller postorder number, so one
// prefix-min scan over preorder positions suffices.
func Following(t *dom.Tree, s Set) Set {
	out := New(t)
	if s.n == 0 {
		return out
	}
	const inf = int(^uint(0) >> 1)
	// minPost[p] = postorder number of the member at preorder position
	// p-1, or inf; turned into a prefix minimum below.
	minPost := make([]int, s.n+1)
	for i := range minPost {
		minPost[i] = inf
	}
	s.ForEach(func(x dom.NodeID) {
		minPost[t.Pre(x)+1] = t.Post(x)
	})
	for p := 1; p <= s.n; p++ {
		if minPost[p-1] < minPost[p] {
			minPost[p] = minPost[p-1]
		}
	}
	for i := 0; i < s.n; i++ {
		y := dom.NodeID(i)
		if minPost[t.Pre(y)] < t.Post(y) {
			out.Add(y)
		}
	}
	return out
}

// Preceding returns {x : ∃y∈s Following(x,y)} — nodes whose subtree
// ends before some member starts (the converse suffix-max scan).
func Preceding(t *dom.Tree, s Set) Set {
	out := New(t)
	if s.n == 0 {
		return out
	}
	// maxPost[p] = max postorder number of members at preorder positions
	// > p, or -1.
	maxPost := make([]int, s.n+1)
	for i := range maxPost {
		maxPost[i] = -1
	}
	s.ForEach(func(y dom.NodeID) {
		maxPost[t.Pre(y)] = t.Post(y)
	})
	for p := s.n - 1; p >= 0; p-- {
		if maxPost[p+1] > maxPost[p] {
			maxPost[p] = maxPost[p+1]
		}
	}
	for i := 0; i < s.n; i++ {
		x := dom.NodeID(i)
		if maxPost[t.Pre(x)+1] > t.Post(x) {
			out.Add(x)
		}
	}
	return out
}
