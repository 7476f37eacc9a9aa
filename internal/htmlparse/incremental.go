package htmlparse

import (
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/dom"
)

// Incremental re-parse. Consecutive versions of a polled page mostly
// differ in a few percent of their bytes, so a changed page warmed from
// its previous version (dom.Tree.WarmFrom) is rebuilt from that
// version's tree instead of from scratch, in the manner of Wagner and
// Graham's incremental parsing ("Efficient and flexible incremental
// parsing", TOPLAS 1998):
//
//   - the common byte prefix and suffix of the two sources bound the
//     dirty window;
//   - the previous tree's marks (dom.SourceMark: the ends of its
//     elements of at least markSpan bytes where what stayed open was
//     one element E and its ancestors) give the resume points: the last
//     one at or before the window and the first one with the same E at
//     or after it;
//   - the builder resumes at the first with the open-element stack of
//     the path to E, and its head and body those of the previous tree
//     that exist there, and tokenizes up to the second;
//   - dom.Splice keeps the nodes before the window and shifts those
//     after it, with their index entries, subtree hashes and bitset
//     words.
//
// A mark sits just past an end tag's '>', and no token reads behind
// itself, so the prefix up to a mark builds the same in both versions.
// What the resumed builder must show is that it ends in the state the
// previous build had at the closing mark: a token that runs across it
// (a text run, a comment, a raw-text element or a tag continuing into
// the suffix) or a stack that is not exactly the path to E there falls
// back to a full build, as do a previous tree that cannot be spliced
// and a window of more than half the page.

// Why a rebuild fell back to a full build.
const (
	fallbackPrev     = iota // prev unbuilt, mutated, not warmed or not in document order
	fallbackLarge           // the re-parsed bytes would be more than half the page
	fallbackAnchor          // no pair of marks with one E around the window
	fallbackBoundary        // a token runs across the window's end
	fallbackStack           // the state after the window is not the mark's, or a window node is not under E
	numFallbacks
)

// fallbacks counts rebuilds by the reason they fell back.
var fallbacks [numFallbacks]atomic.Int64

// rebuild builds src from prev, the warmed tree of an earlier version of
// the page, or returns nil when it cannot be sure of building the tree
// a full build gives.
func rebuild(src string, prev *dom.Tree) *dom.Tree {
	old, marks, ok := prev.SpliceBase()
	if !ok {
		return fallBack(fallbackPrev)
	}
	p := commonPrefix(old, src)
	e0 := len(old) - commonSuffix(old[p:], src[p:])
	if p == len(old) && p == len(src) && len(marks) > 0 {
		p, e0 = int(marks[0].Pos), int(marks[0].Pos) // equal sources: an empty window at any mark
	}
	half := len(src) / 2
	if e0-p > half || e0-p+len(src)-len(old) > half {
		return fallBack(fallbackLarge)
	}
	head, tail, ok := anchors(marks, p, e0, half)
	if !ok {
		return fallBack(fallbackAnchor)
	}
	start, end := int(head.Pos), int(tail.Pos)+len(src)-len(old)
	if end-start > half {
		return fallBack(fallbackLarge)
	}
	reason := fallbackStack
	t := dom.Splice(src, prev, head, tail, nodeHint(src[start:end]), strings.Count(src[start:end], "="), func(t *dom.Tree) bool {
		b := newBuilder(t)
		path := b.resume(head)
		pos := b.run(src, start, end)
		tokenized.Add(int64(pos - start))
		if pos != end {
			reason = fallbackBoundary
			return false
		}
		return b.sameState(prev, path, head, tail)
	})
	if t == nil {
		return fallBack(reason)
	}
	return t
}

func fallBack(reason int) *dom.Tree {
	fallbacks[reason].Add(1)
	return nil
}

// commonPrefix returns the length of the longest common prefix of a and
// b, comparing 256-byte chunks first.
func commonPrefix(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i+256 <= n && a[i:i+256] == b[i:i+256] {
		i += 256
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// commonSuffix returns the length of the longest common suffix of a and
// b, comparing 256-byte chunks first.
func commonSuffix(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i+256 <= n && a[len(a)-i-256:len(a)-i] == b[len(b)-i-256:len(b)-i] {
		i += 256
	}
	for i < n && a[len(a)-i-1] == b[len(b)-i-1] {
		i++
	}
	return i
}

// anchors picks the marks the re-parse runs between: a head at or
// before the window's start p and a tail at or after its end e0, both
// with the same open element, as close together as any such pair and
// less than limit bytes apart. marks are in source order.
func anchors(marks []dom.SourceMark, p, e0, limit int) (head, tail dom.SourceMark, ok bool) {
	hi := sort.Search(len(marks), func(i int) bool { return int(marks[i].Pos) > p })
	lo := sort.Search(len(marks), func(i int) bool { return int(marks[i].Pos) >= e0 })
	best := limit
	for i := hi - 1; i >= 0 && e0-int(marks[i].Pos) < best; i-- {
		h := marks[i]
		for j := lo; j < len(marks) && int(marks[j].Pos-h.Pos) < best; j++ {
			if marks[j].Open == h.Open {
				head, tail, ok, best = h, marks[j], true, int(marks[j].Pos-h.Pos)
				break
			}
		}
	}
	return head, tail, ok
}

// resume sets a builder over a tree that holds the nodes before head to
// the state the build had there: the open elements are the path to
// head.Open, and the head and body are those that exist already. It
// returns that path, root first.
func (b *builder) resume(head dom.SourceMark) []dom.NodeID {
	var path []dom.NodeID
	for a := head.Open; a != dom.Nil; a = b.t.Parent(a) {
		path = append(path, a)
	}
	for i := len(path) - 1; i >= 0; i-- {
		name := b.t.Label(path[i])
		b.push(path[i], tagCodeOf(name), name, 0)
	}
	b.root = 0
	b.head, b.body = headAndBody(b.t, int(head.Nodes))
	return path
}

// headAndBody returns the head and body elements of a parsed tree among
// its first n nodes (Nil for one that is not).
func headAndBody(t *dom.Tree, n int) (head, body dom.NodeID) {
	head, body = dom.Nil, dom.Nil
	for c := t.FirstChild(0); c != dom.Nil && int(c) < n; c = t.NextSibling(c) {
		switch t.Label(c) {
		case "head":
			head = c
		case "body":
			body = c
		}
	}
	return head, body
}

// sameState reports whether the resumed builder ends in the state the
// build of prev had at tail: the same open elements, the path to
// tail.Open (which resume pushed, root last in path), and the same head
// and body — prev's where they came before the window, none where they
// came after it.
func (b *builder) sameState(prev *dom.Tree, path []dom.NodeID, head, tail dom.SourceMark) bool {
	if len(b.stack) != len(path) {
		return false
	}
	for i, e := range b.stack {
		if e.node != path[len(path)-1-i] {
			return false
		}
	}
	oldHead, oldBody := headAndBody(prev, prev.Size())
	want := func(n dom.NodeID) (dom.NodeID, bool) {
		switch {
		case n == dom.Nil || int(n) >= int(tail.Nodes):
			return dom.Nil, true
		case int(n) < int(head.Nodes):
			return n, true
		}
		return dom.Nil, false // made inside the window: no kept node to match
	}
	h, okH := want(oldHead)
	bd, okB := want(oldBody)
	return okH && okB && b.head == h && b.body == bd
}
