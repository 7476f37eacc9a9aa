package dom

import (
	"math"
	"slices"
	"strings"
)

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
	// and where no node but those can gain children before Open closes.
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
// shifted. The pre/post index, the subtree hashes and the Fingerprint
// come with the nodes: copied for the kept ones, computed for the
// window's and for E and its ancestors. The label symbols are the ones
// the build would have interned, in the same order. nodes and attrs size
// the window. Splice returns nil when window returns false or when a
// node of either window does not descend from E.
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
// index, or reports that it could not.
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
	if !t.spliceTail(prev, tail, k, path, names) {
		return false
	}
	t.spliceIndex(prev, k, int(tail.Nodes), base, path)
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
// theirs. The first of them under each element of path is linked after
// the window's last child of it. names are prev's label names, detached
// from its source. It fails on a node whose parent is neither kept
// after the window nor on path.
func (t *Tree) spliceTail(prev *Tree, tail SourceMark, k int, path []NodeID, names []string) bool {
	kq, n0, base := int(tail.Nodes), len(prev.kind), len(t.kind)
	d := NodeID(base - kq)
	ad := len(t.attrTab) - int(tail.Attrs)
	sd := len(t.side) - int(tail.Side)
	bd := len(t.src) - len(prev.src)
	n := base + n0 - kq

	t.kind = append(t.kind, prev.kind[kq:]...)
	t.labelID = append(t.labelID, prev.labelID[kq:]...)
	if len(t.labelNames) < len(names) || !slices.Equal(t.labelNames[:len(names)], names) {
		// The window interned a symbol prev's tail had first, or dropped
		// one: intern the tail's labels in order of first occurrence.
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
	for j := base; j < n; j++ {
		if t.kind[j] == Element {
			t.payload[j].off = uint32(int(t.payload[j].off) + ad)
		} else {
			t.payload[j] = shift(t.payload[j])
		}
	}
	at := len(t.attrTab)
	t.attrTab = append(t.attrTab, prev.attrTab[tail.Attrs:]...)
	for i := at; i < len(t.attrTab); i++ {
		t.attrTab[i] = attrEntry{shift(t.attrTab[i].name), shift(t.attrTab[i].val)}
	}
	t.side = append(t.side, prev.side[tail.Side:]...)

	t.parent = append(t.parent, prev.parent[kq:]...)
	t.firstChild = append(t.firstChild, prev.firstChild[kq:]...)
	t.lastChild = append(t.lastChild, prev.lastChild[kq:]...)
	t.nextSibling = append(t.nextSibling, prev.nextSibling[kq:]...)
	t.prevSibling = append(t.prevSibling, prev.prevSibling[kq:]...)
	nq := NodeID(kq)
	for j := NodeID(base); j < NodeID(n); j++ {
		// A node's children and later siblings come after it.
		if c := t.firstChild[j]; c != Nil {
			t.firstChild[j], t.lastChild[j] = c+d, t.lastChild[j]+d
		}
		if s := t.nextSibling[j]; s != Nil {
			t.nextSibling[j] = s + d
		}
		p, ps := t.parent[j], t.prevSibling[j]
		if p >= nq {
			t.parent[j] = p + d
			if ps != Nil {
				t.prevSibling[j] = ps + d
			}
			continue
		}
		// A child of a node open at tail.
		if ps >= nq {
			t.prevSibling[j] = ps + d
		} else {
			if !slices.Contains(path, p) {
				return false
			}
			last := t.lastChild[p]
			t.prevSibling[j] = last
			if last == Nil {
				t.firstChild[p] = j
			} else {
				t.nextSibling[last] = j
			}
		}
		t.lastChild[p] = j
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
	return true
}

// spliceIndex fills the pre/post index and the subtree hashes of a
// spliced tree, which is in document order like prev: the kept nodes
// take prev's entries (post shifted by the node delta past the window),
// the window's are computed, and so are those of path, whose subtrees
// hold the window. In a tree in document order, post(x) is
// x + size(x) - depth(x) - 1.
func (t *Tree) spliceIndex(prev *Tree, k, kq, base int, path []NodeID) {
	n := len(t.kind)
	d := int32(base - kq)
	t.sizeIndex(n)
	pre, post, size := t.pre, t.post, t.size
	for i := range pre {
		pre[i] = int32(i)
	}
	copy(post, prev.post[:k])
	copy(size, prev.size[:k])
	copy(post[base:], prev.post[kq:])
	copy(size[base:], prev.size[kq:])
	for j := base; j < n; j++ {
		post[j] += d
	}
	// The window: depth first (kept in post), then sizes bottom-up.
	for x := k; x < base; x++ {
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
	for x := base - 1; x >= k; x-- {
		t.subHash[x] = t.hashNode(NodeID(x), labelHash)
	}
	for _, a := range path {
		t.subHash[a] = t.hashNode(a, labelHash)
	}
	shape := hashMix(hashSeed, uint64(n))
	for i := n - 1; i >= 0; i-- {
		shape = hashMix(shape, uint64(uint32(t.parent[i])))
	}
	t.setFingerprint(shape)
}
