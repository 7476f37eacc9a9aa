package dom

import (
	"math"
	"slices"
	"strings"
	"sync/atomic"
)

// The work a changed page costs the tree layer, over the whole process:
// bitsSet counts the bits set node by node into label and kind bitsets
// (two per node by buildBits, two per window node by a splice), and
// spliceMixes the hashMix calls splices made for subtree hashes and
// Fingerprints.
var bitsSet, spliceMixes atomic.Int64

// SourceMark is a resume point of a source-backed build: a position
// between two tokens at which everything the builder carries on to the
// next token is the set of elements it has open. A later build of an
// edited source may stop or start there (Splice).
type SourceMark struct {
	// Pos is the source offset the builder had read up to.
	Pos int32
	// Nodes, Attrs and Side are how many nodes, attribute entries and
	// side strings the tree held there.
	Nodes, Attrs, Side int32
	// Open is the innermost open element. A builder records a mark only
	// where the elements it has open are exactly Open and its ancestors,
	// and where no node made before the mark but those gains children
	// later in the build.
	Open NodeID
}

// MarkSource records a resume point at source offset pos, where open is
// the innermost open element; the tree's current sizes fill in the
// rest. A builder records its marks in source order. Sources past what
// an int32 offset addresses get none.
func (t *Tree) MarkSource(pos int, open NodeID) {
	t.ready()
	if len(t.src) > math.MaxInt32 {
		return
	}
	if t.marks == nil {
		t.marks = make([]SourceMark, 0, len(t.src)/1024+8)
	}
	t.marks = append(t.marks, SourceMark{int32(pos), int32(len(t.kind)), int32(len(t.attrTab)), int32(len(t.side)), open})
}

// SpliceBase returns what a Splice needs of t as its previous tree —
// the source and the marks — and whether t can be one: built, unmutated
// since its deferred build, warmed, and in document order. It builds
// nothing; on a tree that cannot be one, marks is nil. It takes t's
// warm lock, so it is safe while other goroutines read or warm t.
func (t *Tree) SpliceBase() (src string, marks []SourceMark, ok bool) {
	if t.pending.Load() {
		return t.src, nil, false
	}
	t.warmMu.Lock()
	defer t.warmMu.Unlock()
	if t.srcKey == 0 || !t.indexed || !t.docOrdered || !t.bitsValid || !t.subHashValid {
		return t.src, nil, false
	}
	return t.src, t.marks, true
}

// Splice builds the tree of src from prev, whose source src is an edit
// of: the two agree before head.Pos and, aligned at their ends, after
// tail.Pos. head and tail are marks of prev (SpliceBase) with the same
// Open element E. Splice keeps prev's nodes before head as they are;
// window appends the nodes a build of src makes from head's state
// between head.Pos and tail's position in src, and reports whether it
// ended in tail's state; Splice then takes prev's nodes after tail with
// their ids, source offsets and attribute and side-string positions
// shifted. The pre/post index, the subtree hashes, the label and kind
// bitsets and the Fingerprint come with the nodes: copied for the kept
// ones (the bitsets word by word, shifted by the node delta past the
// window), computed for the window's and, but for the bitsets, for E
// and its ancestors. The label symbols are the ones the build would
// have interned, in the same order; where the window changes that
// order for the nodes after it, the bitsets are left to be built from
// the whole tree on first use. nodes and attrs size the window. Splice
// returns nil when window returns false or when a node of either window
// does not descend from E.
//
// Past the window, the work is a copy of prev's columns and a shift of
// the columns whose delta is not 0: source offsets, attribute and side
// positions, node ids. Everything else costs the window, E's children
// and the depth of E.
//
// prev is only read, and must be a tree SpliceBase accepted.
func Splice(src string, prev *Tree, head, tail SourceMark, nodes, attrs int, window func(t *Tree) bool) *Tree {
	k, kq, n0 := int(head.Nodes), int(tail.Nodes), len(prev.kind)
	e := head.Open
	// With every node of both windows under E, each window is one run of
	// E's subtree in document order, and E and its ancestors (path, E
	// first) are the kept nodes whose subtrees change.
	for i := k; i < kq; i++ {
		if p := prev.parent[i]; p != e && int(p) < k {
			return nil
		}
	}
	var path []NodeID
	for a := e; a != Nil; a = prev.parent[a] {
		path = append(path, a)
	}

	t := NewFromSource(src, k+nodes+n0-kq, int(head.Attrs)+attrs+len(prev.attrTab)-int(tail.Attrs))
	t.kind = append(t.kind, prev.kind[:k]...)
	t.labelID = append(t.labelID, prev.labelID[:k]...)
	t.payload = append(t.payload, prev.payload[:k]...)
	t.parent = append(t.parent, prev.parent[:k]...)
	t.firstChild = append(t.firstChild, prev.firstChild[:k]...)
	t.lastChild = append(t.lastChild, prev.lastChild[:k]...)
	t.nextSibling = append(t.nextSibling, prev.nextSibling[:k]...)
	t.prevSibling = append(t.prevSibling, prev.prevSibling[:k]...)
	t.attrTab = append(t.attrTab, prev.attrTab[:head.Attrs]...)
	if head.Side > 0 {
		t.side = slices.Clone(prev.side[:head.Side])
	}
	// Labels are interned in first-occurrence order, so the kept nodes
	// use exactly prev's first m symbols. A builder's label strings may
	// be bytes of its source: the copies keep no earlier source alive.
	names := detach(prev.labelNames)
	m := 0
	for m < len(names) && anyBelow(prev.labelBits[m], k) {
		m++
	}
	t.labelNames = append(make([]string, 0, max(16, len(names))), names[:m]...)
	t.labelIndex = make(map[string]LabelID, max(16, len(prev.labelNames)))
	for i, name := range t.labelNames {
		t.labelIndex[name] = LabelID(i)
	}
	// The open elements get back the children they had at head.
	for _, a := range path {
		last := prev.lastChild[a]
		for last != Nil && int(last) >= k {
			last = prev.prevSibling[last]
		}
		t.lastChild[a] = last
		if last == Nil {
			t.firstChild[a] = Nil
		} else {
			t.nextSibling[last] = Nil
		}
	}
	t.marks = make([]SourceMark, 0, len(prev.marks)+8)
	for _, mk := range prev.marks {
		if mk.Pos > head.Pos {
			break
		}
		t.marks = append(t.marks, mk)
	}

	if !t.spliceWindow(prev, tail, k, e, path, names, window) {
		t.giveBack() // nobody holds the half-built tree: its columns serve the full build
		return nil
	}
	return t
}

// spliceWindow is Splice from the window on: it runs window, checks
// that its nodes descend from e, appends prev's tail and fills the
// index and bitsets, or reports that it could not.
func (t *Tree) spliceWindow(prev *Tree, tail SourceMark, k int, e NodeID, path []NodeID, names []string, window func(t *Tree) bool) bool {
	if !window(t) {
		return false
	}
	base := len(t.kind)
	for i := k; i < base; i++ {
		if p := t.parent[i]; p != e && int(p) < k {
			return false
		}
	}
	remapped, ok := t.spliceTail(prev, tail, k, path, names)
	if !ok {
		return false
	}
	t.spliceIndex(prev, k, int(tail.Nodes), base, path)
	if !remapped {
		t.spliceBits(prev, k, int(tail.Nodes), base)
	}
	return true
}

// detach returns copies of names that share one allocation.
func detach(names []string) []string {
	var b strings.Builder
	for _, s := range names {
		b.WriteString(s)
	}
	all, out := b.String(), make([]string, len(names))
	for i, s := range names {
		out[i], all = all[:len(s)], all[len(s):]
	}
	return out
}

// anyBelow reports whether the bitset has a bit set below n.
func anyBelow(bits []uint64, n int) bool {
	for w := 0; w < len(bits) && w*64 < n; w++ {
		word := bits[w]
		if rest := n - w*64; rest < 64 {
			word &= 1<<uint(rest) - 1
		}
		if word != 0 {
			return true
		}
	}
	return false
}

// spliceTail appends prev's nodes from tail on, which is Splice's last
// step before the index: ids past the window move by the node delta,
// source offsets by the byte delta, attribute runs and side strings by
// theirs, each column in one pass that is skipped when its delta is 0.
// The tail's first child of each element of path is linked after the
// window's last child of it. names are prev's label names, detached
// from its source. It reports whether the window interned the labels
// in another order than prev, so that the tail's symbols were
// remapped, and fails when the tail's first node is not a child of an
// element of path.
func (t *Tree) spliceTail(prev *Tree, tail SourceMark, k int, path []NodeID, names []string) (remapped, ok bool) {
	kq, n0, base := int(tail.Nodes), len(prev.kind), len(t.kind)
	d := NodeID(base - kq)
	ad := len(t.attrTab) - int(tail.Attrs)
	sd := len(t.side) - int(tail.Side)
	bd := len(t.src) - len(prev.src)
	n := base + n0 - kq
	// Where the tail hangs: by the marks' contract, a node after tail
	// whose parent precedes it is a child of an element open at tail,
	// one of path. The first such is the tail's first node, a child of
	// at; the elements of path above at continue with their child on
	// path's next sibling.
	at := -1
	if kq < n0 {
		if at = slices.Index(path, prev.parent[kq]); at < 0 {
			return false, false
		}
	}

	t.kind = append(t.kind, prev.kind[kq:]...)
	t.labelID = append(t.labelID, prev.labelID[kq:]...)
	if len(t.labelNames) < len(names) || !slices.Equal(t.labelNames[:len(names)], names) {
		// The window interned a symbol prev's tail had first, or dropped
		// one: intern the tail's labels in order of first occurrence.
		remapped = true
		remap := make([]LabelID, len(names))
		for i := range remap {
			remap[i] = NoLabel
		}
		for j := base; j < n; j++ {
			old := t.labelID[j]
			if remap[old] == NoLabel {
				remap[old] = t.Intern(names[old])
			}
			t.labelID[j] = remap[old]
		}
	}
	shift := func(p span) span {
		switch {
		case p.n == sideLen:
			p.off = uint32(int(p.off) + sd)
		case p.n > 0:
			p.off = uint32(int(p.off) + bd)
		}
		return p
	}
	t.payload = append(t.payload, prev.payload[kq:]...)
	if ad != 0 || bd != 0 || sd != 0 {
		for j := base; j < n; j++ {
			if t.kind[j] == Element {
				t.payload[j].off = uint32(int(t.payload[j].off) + ad)
			} else {
				t.payload[j] = shift(t.payload[j])
			}
		}
	}
	attrs := len(t.attrTab)
	t.attrTab = append(t.attrTab, prev.attrTab[tail.Attrs:]...)
	if bd != 0 || sd != 0 {
		for i := attrs; i < len(t.attrTab); i++ {
			t.attrTab[i] = attrEntry{shift(t.attrTab[i].name), shift(t.attrTab[i].val)}
		}
	}
	t.side = append(t.side, prev.side[tail.Side:]...)

	// Every id a tail node holds that is past the window moves by d; the
	// others are path elements, and Nil.
	nq := NodeID(kq)
	for _, c := range [...]struct {
		col *[]NodeID
		src []NodeID
	}{{&t.parent, prev.parent}, {&t.firstChild, prev.firstChild}, {&t.lastChild, prev.lastChild},
		{&t.nextSibling, prev.nextSibling}, {&t.prevSibling, prev.prevSibling}} {
		*c.col = append(*c.col, c.src[kq:]...)
		if d != 0 {
			shiftIDs((*c.col)[base:], nq, d)
		}
	}
	for i := at; i >= 0 && i < len(path); i++ {
		a, first := path[i], nq
		if i > at {
			first = prev.nextSibling[path[i-1]]
		}
		if first == Nil {
			continue
		}
		if first < nq {
			return remapped, false
		}
		j, last := first+d, t.lastChild[a]
		t.prevSibling[j] = last
		if last == Nil {
			t.firstChild[a] = j
		} else {
			t.nextSibling[last] = j
		}
		t.lastChild[a] = prev.lastChild[a] + d
	}

	for _, mk := range prev.marks {
		if mk.Pos <= tail.Pos {
			continue
		}
		open := mk.Open
		if open >= nq {
			open += d
		} else if int(open) >= k {
			continue
		}
		t.marks = append(t.marks, SourceMark{mk.Pos + int32(bd), mk.Nodes + int32(d), mk.Attrs + int32(ad), mk.Side + int32(sd), open})
	}
	return remapped, true
}

// shiftIDs adds d to every id of col at or past nq.
func shiftIDs(col []NodeID, nq, d NodeID) {
	for i, v := range col {
		if v >= nq {
			col[i] = v + d
		}
	}
}

// spliceIndex fills the pre/post index and the subtree hashes of a
// spliced tree, which is in document order like prev: the kept nodes
// take prev's entries (pre and post shifted by the node delta past the
// window), the window's are computed, and so are those of path, whose
// subtrees hold the window. In a tree in document order, post(x) is
// x + size(x) - depth(x) - 1.
func (t *Tree) spliceIndex(prev *Tree, k, kq, base int, path []NodeID) {
	n := len(t.kind)
	d := int32(base - kq)
	t.sizeIndex(n)
	pre, post, size := t.pre, t.post, t.size
	copy(pre, prev.pre[:k])
	copy(post, prev.post[:k])
	copy(size, prev.size[:k])
	copy(pre[base:], prev.pre[kq:])
	copy(post[base:], prev.post[kq:])
	copy(size[base:], prev.size[kq:])
	if d != 0 {
		for j := base; j < n; j++ {
			pre[j] += d
			post[j] += d
		}
	}
	// The window: depth first (kept in post), then sizes bottom-up.
	for x := k; x < base; x++ {
		pre[x] = int32(x)
		if p := t.parent[x]; int(p) >= k {
			post[x] = post[p] + 1
		} else {
			post[x] = int32(len(path)) // a child of E, at depth len(path)-1
		}
		size[x] = 1
	}
	for x := base - 1; x >= k; x-- {
		if p := t.parent[x]; int(p) >= k {
			size[p] += size[x]
		}
	}
	for x := k; x < base; x++ {
		post[x] = int32(x) + size[x] - post[x] - 1
	}
	for _, a := range path {
		size[a] += d
		post[a] += d
	}
	t.indexed, t.docOrdered = true, true

	t.sizeSubHash(n)
	copy(t.subHash, prev.subHash[:k])
	copy(t.subHash[base:], prev.subHash[kq:])
	var buf [32]uint64
	labelHash := t.labelHashes(buf[:0])
	mixes := 0
	for x := base - 1; x >= k; x-- {
		h, m := t.hashNode(NodeID(x), labelHash)
		t.subHash[x], mixes = h, mixes+m
	}
	for _, a := range path {
		h, m := t.hashNode(a, labelHash)
		t.subHash[a], mixes = h, mixes+m
	}
	mixes += t.setFingerprint(true)
	spliceMixes.Add(int64(mixes))
}

// spliceBits fills the label and kind bitsets of a spliced tree whose
// tail kept prev's label symbols: each is prev's, its words before the
// window copied and those after it shifted by the node delta, with the
// window's nodes set one by one. Symbols the window interned first are
// the window's alone.
func (t *Tree) spliceBits(prev *Tree, k, kq, base int) {
	t.allocBits()
	carry := func(dst, src []uint64) {
		orShifted(dst, src, 0, k, 0)
		orShifted(dst, src, kq, len(prev.kind), base-kq)
	}
	for id, src := range prev.labelBits {
		carry(t.labelBits[id], src)
	}
	for kd, src := range prev.kindBits {
		carry(t.kindBits[kd], src)
	}
	for x := k; x < base; x++ {
		t.labelBits[t.labelID[x]][x>>6] |= 1 << (uint(x) & 63)
		t.kindBits[t.kind[x]][x>>6] |= 1 << (uint(x) & 63)
	}
	bitsSet.Add(2 * int64(base-k))
	t.bitsValid = true
}

// orShifted ORs the bits [from, to) of src into dst, each moved by d
// places (from+d >= 0), a word of dst at a time.
func orShifted(dst, src []uint64, from, to, d int) {
	if from >= to {
		return
	}
	lo, hi := from+d, to+d
	first, last := lo>>6, (hi-1)>>6
	for j := first; j <= last; j++ {
		word := bitsAt(src, j<<6-d)
		if j == first {
			word &= ^uint64(0) << (uint(lo) & 63)
		}
		if j == last {
			word &= ^uint64(0) >> (63 - (uint(hi-1) & 63))
		}
		dst[j] |= word
	}
}

// bitsAt returns the 64 bits of src from bit off on, which may be
// negative; bits outside src read 0.
func bitsAt(src []uint64, off int) uint64 {
	if off < 0 {
		if off <= -64 {
			return 0
		}
		return src[0] << uint(-off)
	}
	i, sh := off>>6, uint(off)&63
	var word uint64
	if i < len(src) {
		word = src[i] >> sh
	}
	if sh != 0 && i+1 < len(src) {
		word |= src[i+1] << (64 - sh)
	}
	return word
}
