// Package dom implements the unranked ordered labeled trees of the Lixto
// paper (Section 2.2): the structure
//
//	t_ur = <dom, root, leaf, (label_a) a∈Σ, firstchild, nextsibling, lastsibling>
//
// together with the document-order relation ≺ and the auxiliary relations
// (parent, child, descendant, following) needed by the query engines built
// on top of it.
//
// A Tree stores its nodes in flat parallel slices indexed by NodeID.  When
// a tree is built top-down, left-to-right (as the HTML parser and all
// generators in this repository do), NodeIDs coincide with document order;
// for trees assembled in any other order, Reindex computes pre/post
// numbers so that all axis checks remain O(1).
//
// Trees carry two node kinds: element nodes (with a label from the
// alphabet Σ and optional attributes) and text nodes (leaves holding
// character data).  The paper models strings and attributes as encoded
// subtrees over a character alphabet; we keep them as node payloads, which
// is equivalent for every algorithm in this repository and is what the
// actual Lixto system did.
//
// Character data is stored as 8-byte spans of the source the tree was
// parsed from, not as string headers, so the per-node arenas hold no
// pointers for the collector to trace. Strings that are not source bytes
// (decoded entities, anything added through the string API) live in a
// side table that a sentinel span addresses.
//
// A tree made by NewDeferred (every htmlparse.Parse result) holds only
// its source until it is first used: the first accessor, Warm call or
// mutator builds it, exactly once, under the tree's warmMu, and
// publishes the build through an atomic flag, so any number of
// goroutines may make that first call at once. A change check that
// needs no more than ContentKey never builds the tree at all. What the
// build leaves lazy — the pre/post index, the label and kind bitsets
// and the subtree hashes — is still filled unsynchronized on first
// read: a tree shared between goroutines is Warmed first.
//
// WarmFrom(prev) is Warm for the next version of a page: the pending
// build receives prev, the warmed tree of the version before, and
// htmlparse re-parses only the bytes between two of prev's resume
// points (SourceMark) around the edit; Splice takes every other node
// from prev with its pre/post entry, subtree hash and label and kind
// bits, shifted past the edit, so that past the window a changed page
// costs a copy of prev's columns and a shift of those whose delta is
// not 0. The result is the tree a full build gives, down to its
// Fingerprint, which for a tree in document order is the root's
// subtree hash mixed with the node count (its ids are the preorder
// numbers that hash fixes), and for any other tree also folds in the
// parent ids. prev is only read:
// its lock is taken once, to check that it is built, unmutated and
// warmed, and its nodes are read lock-free after, so a tree any number
// of goroutines are reading may be the previous tree of any number of
// builds at once — as long as nobody mutates it.
//
// A tree has an owner only when Adopt made it: a private, unbuilt copy
// of an unbuilt deferred tree, which an extraction takes for every page
// it fetches so that no other holder of the fetched tree (a shared
// fetch cache, a caller's input) ever sees it built or recycled. When
// the owner knows that no goroutine reads the tree any more — the next
// version has been built from it and has superseded it — Recycle gives
// its node columns, index, subtree hashes and attribute table to a
// size-classed pool, and NewFromSource, Splice, Reindex and the
// subtree-hash pass draw from that pool before they allocate. A
// recycled tree is empty: reading one of its nodes panics instead of
// reading the page that took its arrays. Trees nobody adopted are
// never recycled, and the collector empties the pool, so a process
// that stops building keeps no arrays for it.
package dom

import (
	"fmt"
	"hash/maphash"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/pool"
)

// NodeID identifies a node within a single Tree. The zero Tree has no
// nodes; valid ids are 0..Tree.Size()-1.
type NodeID int32

// Nil is the sentinel "no node" value returned by navigation functions
// when the requested node does not exist (e.g. FirstChild of a leaf).
const Nil NodeID = -1

// Kind distinguishes element nodes from text nodes.
type Kind uint8

const (
	// Element is an interior (or leaf) node labeled with a tag symbol.
	Element Kind = iota
	// Text is a leaf node holding character data. Its Label is "#text".
	Text
	// Comment is a leaf node holding an HTML/XML comment. Its Label is
	// "#comment". Comments participate in the tree but are skipped by
	// ElementText and by default node tests.
	Comment
)

// TextLabel is the pseudo-label of text nodes.
const TextLabel = "#text"

// CommentLabel is the pseudo-label of comment nodes.
const CommentLabel = "#comment"

// Attr is a single name/value attribute of an element node.
type Attr struct {
	Name  string
	Value string
}

// LabelID is a dense interned symbol for a node label. Every distinct
// label string of a tree (including the #text/#comment pseudo-labels)
// receives one id in 0..NumLabels()-1, assigned in first-occurrence
// order. Comparing LabelIDs replaces string comparison on the hot paths
// of every evaluator; Label still returns the string for display and
// encoding.
type LabelID int32

// NoLabel is returned by LabelIDFor for labels that do not occur in the
// tree.
const NoLabel LabelID = -1

// Tree is an unranked ordered labeled tree. The zero value is an empty
// tree to which a root must be added with AddRoot before use.
type Tree struct {
	src     string // the parsed source, which spans address; "" without one
	kind    []Kind
	labelID []LabelID
	// payload is a text or comment node's data, or an element's run
	// (off, n) of attribute entries in attrTab.
	payload     []span
	parent      []NodeID
	firstChild  []NodeID
	lastChild   []NodeID
	nextSibling []NodeID
	prevSibling []NodeID

	// attrTab is the flat attribute table: a node's attributes are one
	// contiguous run of it. A run that must grow is first moved to the
	// tail; its old entries stay behind unused.
	attrTab []attrEntry
	side    []string // the strings that are not bytes of src

	// Label interning: labelNames[id] is the string of symbol id;
	// labelIndex is the inverse map.
	labelNames []string
	labelIndex map[string]LabelID

	// pre/post order numbers and subtree sizes; valid while indexed.
	pre        []int32
	post       []int32
	size       []int32
	indexed    bool
	docOrdered bool // NodeIDs coincide with document order; valid while indexed

	// Lazily-built characteristic bitsets: labelBits[id] has bit n set
	// iff label_id(n); kindBits likewise per node kind. Valid while
	// bitsValid.
	labelBits [][]uint64
	kindBits  [3][]uint64
	bitsValid bool

	// subHash holds the per-node subtree fingerprints (SubtreeHash) in
	// one packed allocation, like the pre/post/size index, and fp the
	// whole-tree Fingerprint derived from them; both valid while
	// subHashValid.
	subHash      []uint64
	fp           uint64
	subHashValid bool

	// marks are the resume points a source-backed builder recorded
	// (MarkSource), in source order; a Splice of the next version of
	// the source starts and ends at two of them.
	marks []SourceMark

	// warmMu serializes Warm and the deferred build, so concurrent
	// warmers (crawl-frontier workers handed the same tree under
	// different URLs) do not race on the lazy caches above.
	warmMu sync.Mutex
	// pending is set while a deferred tree is unbuilt: build has not
	// yet run on src. Its store after the build publishes the built
	// slices to every goroutine that then loads it.
	pending atomic.Bool
	build   func(src string, prev *Tree) *Tree
	// srcKey is the ContentKey of a deferred tree while it is
	// unmutated, a hash of src; 0 otherwise.
	srcKey uint64

	// ids and idx are the whole blocks the five id slices and the
	// pre/post/size index were cut from, kept for recycling (pool.go):
	// ids only for a tree alloc sized from minPooled nodes on. owned is
	// set on a tree from Adopt until it is recycled.
	ids   []NodeID
	idx   []int32
	owned bool
}

// span is n bytes of character data at src[off:]; with n == sideLen it
// is the string side[off] instead.
type span struct{ off, n uint32 }

const sideLen = ^uint32(0)

// attrEntry is one attribute of the flat table.
type attrEntry struct{ name, val span }

// New returns an empty tree with capacity hint n.
func New(n int) *Tree {
	t := &Tree{}
	t.alloc(n, 0)
	return t
}

// NewFromSource returns an empty tree for a builder that hands it
// character data as offsets into src (AppendSourceLeaf,
// AppendSourceElement), which it keeps alive; nodes and attrs are
// capacity hints.
func NewFromSource(src string, nodes, attrs int) *Tree {
	t := &Tree{src: src}
	t.alloc(nodes, attrs)
	return t
}

// srcSeed keys the source hashes of ContentKey, which are compared only
// within one process.
var srcSeed = maphash.MakeSeed()

// NewDeferred returns the tree build(src, nil) makes, without making it:
// the first accessor, Warm call or mutator runs build once, and
// concurrent first users wait for that one run. build must be a
// function of src alone — equal sources, equal trees — because the
// hash of src taken here stands as the tree's ContentKey until it is
// mutated; it returns a tree over src from NewFromSource or Splice,
// which the deferred tree takes over. A build started by WarmFrom gets
// that call's previous tree as prev (nil otherwise), which it may reuse
// but must not let change its result.
func NewDeferred(src string, build func(src string, prev *Tree) *Tree) *Tree {
	t := &Tree{src: src, build: build, srcKey: maphash.String(srcSeed, src)}
	t.pending.Store(true)
	return t
}

// ready builds a deferred tree on first use. Every exported method that
// reads or writes the tree's nodes calls it first, directly or through
// the slow path of ensureIndex, ensureBits or ensureSubHash.
func (t *Tree) ready() {
	if t.pending.Load() {
		t.force()
	}
}

func (t *Tree) force() {
	t.warmMu.Lock()
	defer t.warmMu.Unlock()
	t.buildLocked(nil)
}

// buildLocked runs a pending build, handing it prev, and takes over its
// result: the nodes, the marks, and whatever lazy caches a Splice
// filled. The caller holds warmMu.
func (t *Tree) buildLocked(prev *Tree) {
	if !t.pending.Load() {
		return
	}
	b := t.build(t.src, prev)
	t.src, t.kind, t.labelID, t.payload = b.src, b.kind, b.labelID, b.payload
	t.parent, t.firstChild, t.lastChild = b.parent, b.firstChild, b.lastChild
	t.nextSibling, t.prevSibling = b.nextSibling, b.prevSibling
	t.attrTab, t.side, t.labelNames, t.labelIndex = b.attrTab, b.side, b.labelNames, b.labelIndex
	t.marks = b.marks
	t.pre, t.post, t.size, t.indexed, t.docOrdered = b.pre, b.post, b.size, b.indexed, b.docOrdered
	t.labelBits, t.kindBits, t.bitsValid = b.labelBits, b.kindBits, b.bitsValid
	t.subHash, t.fp, t.subHashValid = b.subHash, b.fp, b.subHashValid
	t.ids, t.idx = b.ids, b.idx
	t.build = nil
	t.pending.Store(false)
}

// ContentKey returns a key that changes whenever the tree's content
// does, for change checks that must not pay for a build. For a tree
// from NewDeferred that has not been mutated it is the hash of the
// source taken when the tree was made, so equal keys mean equal
// sources and therefore equal trees, and the tree stays unbuilt. For
// any other tree it is the Fingerprint. A parsed page and a
// string-built twin of it get different keys: a change check reads that
// as a change, never the reverse (up to ~2^-64 collisions).
func (t *Tree) ContentKey() uint64 {
	if k := t.srcKey; k != 0 {
		return k
	}
	t.warmMu.Lock()
	defer t.warmMu.Unlock()
	t.buildLocked(nil)
	t.ensureSubHash()
	return t.fp
}

// alloc pre-allocates every parallel slice of an empty tree for n
// nodes and attrs attribute entries, so a builder that sized its hints
// correctly performs zero growth reallocations while appending — the
// arena property the streaming HTML parser relies on. Growth past the
// hint falls back to append's amortized doubling. From minPooled nodes
// on, the slices come from a recycled tree when the pool has one of the
// size class (pool.go), else they are made at the class's size.
func (t *Tree) alloc(n, attrs int) {
	pooled := n >= minPooled
	if pooled && t.drawColumns(n) {
		if cap(t.attrTab) < attrs {
			t.attrTab = make([]attrEntry, 0, attrs)
		}
		return
	}
	if attrs > 0 {
		t.attrTab = make([]attrEntry, 0, attrs)
	}
	if n <= 0 {
		return
	}
	if pooled {
		n, _ = pool.SizeClass(n)
	}
	t.kind = make([]Kind, 0, n)
	t.labelID = make([]LabelID, 0, n)
	t.payload = make([]span, 0, n)
	// The five structural id slices share one backing allocation.
	ids := make([]NodeID, 5*n)
	t.setIDs(ids)
	if pooled {
		t.ids = ids // kept for recycling
	}
}

// Size returns the number of nodes in the tree, |dom|.
func (t *Tree) Size() int {
	t.ready()
	return len(t.kind)
}

// Root returns the root node, or Nil if the tree is empty. The paper's
// unary relation root(x) holds exactly for this node.
func (t *Tree) Root() NodeID {
	t.ready()
	if len(t.kind) == 0 {
		return Nil
	}
	return 0
}

// AddRoot creates the root element node. It must be the first node added.
func (t *Tree) AddRoot(label string) NodeID {
	t.ready()
	if len(t.kind) != 0 {
		panic("dom: AddRoot on non-empty tree")
	}
	return t.addNode(Element, t.Intern(label), span{}, Nil)
}

// AppendChild adds a new element node labeled label as the rightmost
// child of parent and returns its id.
func (t *Tree) AppendChild(parent NodeID, label string) NodeID {
	t.ready()
	return t.addNode(Element, t.Intern(label), span{}, parent)
}

// AppendText adds a new text node holding data as the rightmost child of
// parent and returns its id.
func (t *Tree) AppendText(parent NodeID, data string) NodeID {
	t.ready()
	return t.addNode(Text, t.Intern(TextLabel), t.spanOf(data, -1), parent)
}

// AppendComment adds a new comment node as the rightmost child of parent.
func (t *Tree) AppendComment(parent NodeID, data string) NodeID {
	t.ready()
	return t.addNode(Comment, t.Intern(CommentLabel), t.spanOf(data, -1), parent)
}

// AppendSourceLeaf is AppendText/AppendComment (kind k) for data that is
// src[off:end] and a label the caller has interned. The caller keeps
// kind and label consistent: Text with #text, Comment with #comment.
func (t *Tree) AppendSourceLeaf(parent NodeID, k Kind, label LabelID, off, end int) NodeID {
	t.ready()
	return t.addNode(k, label, t.spanOf(t.src[off:end], off), parent)
}

// SourceAttr is an attribute as a source-backed builder lexed it: name
// and value, and where each lies in src — or a negative offset for a
// string that is not source bytes (a lower-cased name, decoded entities).
type SourceAttr struct {
	Name, Value     string
	NameOff, ValOff int
}

// AppendSourceElement adds an element node carrying symbol label and the
// given attributes as the rightmost child of parent. Duplicate names
// follow SetAttr semantics: the first occurrence keeps its position,
// later occurrences overwrite its value. attrs is not retained, so
// builders reuse one scratch slice across calls.
func (t *Tree) AppendSourceElement(parent NodeID, label LabelID, attrs []SourceAttr) NodeID {
	t.ready()
	n := t.addNode(Element, label, span{off: uint32(len(t.attrTab))}, parent)
	for _, a := range attrs {
		t.setAttr(n, a.Name, a.NameOff, t.spanOf(a.Value, a.ValOff))
	}
	return n
}

func (t *Tree) addNode(k Kind, label LabelID, payload span, parent NodeID) NodeID {
	_ = t.labelNames[label] // a symbol of another tree is a bug: fail here, not in a reader
	id := NodeID(len(t.kind))
	t.kind = append(t.kind, k)
	t.labelID = append(t.labelID, label)
	t.payload = append(t.payload, payload)
	t.parent = append(t.parent, parent)
	t.firstChild = append(t.firstChild, Nil)
	t.lastChild = append(t.lastChild, Nil)
	t.nextSibling = append(t.nextSibling, Nil)
	t.prevSibling = append(t.prevSibling, Nil)
	t.indexed = false
	t.bitsValid = false
	t.subHashValid = false
	t.srcKey = 0
	if parent != Nil {
		last := t.lastChild[parent]
		if last == Nil {
			t.firstChild[parent] = id
		} else {
			t.nextSibling[last] = id
			t.prevSibling[id] = last
		}
		t.lastChild[parent] = id
	}
	return id
}

// spanOf addresses s, which is src[off:off+len(s)] unless off is
// negative. What is not source bytes, or lies past what a span can hold
// (a source of 4 GiB), goes to the side table.
func (t *Tree) spanOf(s string, off int) span {
	switch {
	case s == "":
		return span{}
	case off < 0 || uint64(off+len(s)) >= uint64(sideLen):
		t.side = append(t.side, s)
		return span{uint32(len(t.side) - 1), sideLen}
	}
	return span{uint32(off), uint32(len(s))}
}

// str resolves a span.
func (t *Tree) str(p span) string {
	if p.n == sideLen {
		return t.side[p.off]
	}
	return t.src[p.off : p.off+p.n]
}

// Intern maps a label string to its dense symbol, allocating a fresh id
// on first occurrence. Builders that see the same few labels thousands
// of times (the HTML parser) intern each once and append by symbol.
func (t *Tree) Intern(label string) LabelID {
	t.ready()
	if id, ok := t.labelIndex[label]; ok {
		return id
	}
	if t.labelIndex == nil {
		t.labelIndex = make(map[string]LabelID, 16)
	}
	if t.labelNames == nil {
		t.labelNames = make([]string, 0, 16)
	}
	id := LabelID(len(t.labelNames))
	t.labelIndex[label] = id
	t.labelNames = append(t.labelNames, label)
	return id
}

// NumLabels returns the number of distinct labels interned so far.
func (t *Tree) NumLabels() int {
	t.ready()
	return len(t.labelNames)
}

// LabelID returns the interned symbol of node n's label.
func (t *Tree) LabelID(n NodeID) LabelID {
	t.ready()
	return t.labelID[n]
}

// LabelIDFor returns the symbol of a label string, or NoLabel if no node
// of the tree carries that label.
func (t *Tree) LabelIDFor(label string) LabelID {
	t.ready()
	if id, ok := t.labelIndex[label]; ok {
		return id
	}
	return NoLabel
}

// LabelName returns the label string of symbol id.
func (t *Tree) LabelName(id LabelID) string {
	t.ready()
	return t.labelNames[id]
}

// wordsFor returns the number of 64-bit words covering the tree's nodes.
func (t *Tree) wordsFor() int { return (len(t.kind) + 63) / 64 }

// ensureBits, ensureSubHash and ensureIndex fill a lazy cache on its
// first read. A deferred tree has none of the three valid until it is
// built, so their slow paths are where a read that starts with one of
// them builds the tree: the fast path costs the one flag test it
// always did.
func (t *Tree) ensureBits() {
	if !t.bitsValid {
		t.buildBits()
	}
}

func (t *Tree) buildBits() {
	t.ready()
	t.allocBits()
	for n, id := range t.labelID {
		t.labelBits[id][n>>6] |= 1 << (uint(n) & 63)
		t.kindBits[t.kind[n]][n>>6] |= 1 << (uint(n) & 63)
	}
	bitsSet.Add(2 * int64(len(t.labelID)))
	t.bitsValid = true
}

// allocBits gives t empty label and kind bitsets: one backing array for
// every characteristic bitset (labels first, then the three kinds),
// capped sub-slices so accidental appends cannot cross into a
// neighbour.
func (t *Tree) allocBits() {
	w, L := t.wordsFor(), len(t.labelNames)
	backing := make([]uint64, (L+len(t.kindBits))*w)
	t.labelBits = make([][]uint64, L)
	for i := range t.labelBits {
		t.labelBits[i] = backing[i*w : (i+1)*w : (i+1)*w]
	}
	for k := range t.kindBits {
		o := (L + k) * w
		t.kindBits[k] = backing[o : o+w : o+w]
	}
}

// LabelBits returns the characteristic bitset of label_id (bit n set iff
// node n carries the label), built lazily and cached until the tree is
// mutated. The slice is shared: callers must not modify it.
func (t *Tree) LabelBits(id LabelID) []uint64 {
	t.ensureBits()
	return t.labelBits[id]
}

// KindBits returns the characteristic bitset of a node kind (shared
// slice; do not mutate).
func (t *Tree) KindBits(k Kind) []uint64 {
	t.ensureBits()
	return t.kindBits[k]
}

// Fingerprint returns a content hash of the whole tree covering
// structure, kinds, labels, text, and attributes, and which node id
// sits where (evaluation caches keyed on it hold NodeIDs). It is not a
// second walk over the content: it mixes the root's SubtreeHash
// (content and shape) with the node count, produced by the pass that
// fills the subtree-hash table. On a tree in document order that is
// all: its ids are its preorder numbers, which the root's hash already
// fixes. On any other tree a fold of the parent ids, last node first,
// is mixed in as well. Whether a tree is in document order is read
// from its links when it is not indexed, so the Fingerprint is a
// function of the tree alone, the same whether or not it was indexed,
// spliced or built in full. It is cached with the subtree-hash table
// and invalidated on mutation, so unchanged trees fingerprint in O(1).
// Equal trees built in the same order always agree; distinct trees
// collide with probability ~2^-64.
func (t *Tree) Fingerprint() uint64 {
	t.ensureSubHash()
	return t.fp
}

// ensureSubHash fills subHash with the merkle-style subtree
// fingerprints, and fp with the Fingerprint mixed from them, in a
// single bottom-up pass. Nodes are only ever created by addNode, which
// requires the parent to exist first, so every parent id is smaller
// than its children's ids and one reverse-id sweep visits children
// before parents.
func (t *Tree) ensureSubHash() {
	if !t.subHashValid {
		t.buildSubHash()
	}
}

func (t *Tree) buildSubHash() {
	t.ready()
	n := len(t.kind)
	t.sizeSubHash(n)
	// Labels are hashed once per symbol, not once per node.
	var buf [32]uint64
	labelHash := t.labelHashes(buf[:0])
	for i := n - 1; i >= 0; i-- {
		t.subHash[i], _ = t.hashNode(NodeID(i), labelHash)
	}
	t.setFingerprint(t.inDocOrder())
}

// inDocOrder reports whether t's NodeIDs are its preorder numbers: the
// index's verdict when t is indexed, else the links'. Node i > 0 must
// follow node i-1 in document order: i-1 is i's parent when i has no
// previous sibling, and otherwise lies on the path of last children
// down from that sibling (were it not the path's end, its first child
// would fail the test as a first child whose parent does not precede
// it). The walks up from i-1 climb as far as document order descends
// from i-1 to i, so they take O(|dom|) steps in all, and the check
// allocates nothing.
func (t *Tree) inDocOrder() bool {
	if t.indexed {
		return t.docOrdered
	}
	for i := 1; i < len(t.kind); i++ {
		ps, a := t.prevSibling[i], NodeID(i-1)
		if ps == Nil {
			if t.parent[i] != a {
				return false
			}
			continue
		}
		for a != ps {
			if a < ps || t.nextSibling[a] != Nil {
				return false
			}
			a = t.parent[a]
		}
	}
	return true
}

// sizeSubHash gives subHash length n, in its own capacity when that
// suffices: a pooled column holds another tree's hashes, which the
// caller overwrites. A new one is as long as the id columns' block
// (columnRows), so that the tree recycles it with them.
func (t *Tree) sizeSubHash(n int) {
	if cap(t.subHash) < n {
		t.subHash = make([]uint64, t.columnRows(n))[:n]
	} else {
		t.subHash = t.subHash[:n]
	}
}

// columnRows is how many rows a new index or hash column of a tree of
// n nodes gets: those of its id block when the tree recycles its
// columns and the block holds n, else n.
func (t *Tree) columnRows(n int) int {
	return max(n, len(t.ids)/5)
}

// labelHashes appends the hash of every label symbol to buf.
func (t *Tree) labelHashes(buf []uint64) []uint64 {
	for _, name := range t.labelNames {
		buf = append(buf, hashString(hashSeed, name))
	}
	return buf
}

// hashNode computes node i's subtree hash from its own content and its
// children's entries of subHash, which must be final, and counts the
// hashMix calls it made.
func (t *Tree) hashNode(i NodeID, labelHash []uint64) (h uint64, mixes int) {
	h = hashMix(labelHash[t.labelID[i]], uint64(t.kind[i]))
	if p := t.payload[i]; t.kind[i] != Element {
		s := t.str(p)
		h, mixes = hashString(h, s), 1+stringMixes(s)
	} else {
		h, mixes = hashMix(h, uint64(p.n)), 2
		for _, a := range t.attrTab[p.off : p.off+p.n] {
			name, val := t.str(a.name), t.str(a.val)
			h, mixes = hashString(hashString(h, name), val), mixes+stringMixes(name)+stringMixes(val)
		}
	}
	for c := t.firstChild[i]; c != Nil; c = t.nextSibling[c] {
		h, mixes = hashMix(h, t.subHash[c]), mixes+1
	}
	return h, mixes
}

// setFingerprint completes the subtree-hash table: the Fingerprint is
// the root's subtree hash mixed with the node count and, unless the
// tree is ordered (in document order), with the fold of its parent ids
// from the last node to the first. It returns the hashMix calls made.
func (t *Tree) setFingerprint(ordered bool) int {
	n := len(t.kind)
	shape, mixes := hashMix(hashSeed, uint64(n)), 1
	if !ordered {
		for i := n - 1; i >= 0; i-- {
			shape = hashMix(shape, uint64(uint32(t.parent[i])))
		}
		mixes += n
	}
	t.fp = shape
	if n > 0 {
		t.fp, mixes = hashMix(shape, t.subHash[0]), mixes+1
	}
	t.subHashValid = true
	return mixes
}

const hashSeed, hashPrime = 14695981039346656037, 1099511628211 // FNV-1a's

// hashMix folds the word w into the hash state h: FNV-1a's xor and
// multiply on 8 bytes at a time, plus a shift that carries the high
// bits the multiply produces back down.
func hashMix(h, w uint64) uint64 {
	h = (h ^ w) * hashPrime
	return h ^ h>>32
}

// stringMixes is the number of hashMix calls hashString makes for s.
func stringMixes(s string) int { return 1 + (len(s)+7)/8 }

// hashString folds s into h: its length, then its bytes as
// little-endian 8-byte words, the last one zero-padded.
func hashString(h uint64, s string) uint64 {
	h = hashMix(h, uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h = hashMix(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
	}
	if len(s) > 0 {
		var w uint64
		for j := len(s) - 1; j >= 0; j-- {
			w = w<<8 | uint64(s[j])
		}
		h = hashMix(h, w)
	}
	return h
}

// SubtreeHash returns the content fingerprint of the subtree rooted at
// n: a hash (hashMix) over n's kind, label, text and attributes mixed
// with the subtree hashes of its children in sibling order. It depends
// only on subtree content — never on n's position — so equal subtrees
// hash equal across independently parsed documents, and any mutation
// inside the subtree changes the hash of n and of every ancestor
// (modulo ~2^-64 collisions). The whole table is built in one O(|dom|)
// pass on first use and cached until mutation; Warm precomputes it, so
// on warmed trees concurrent readers stay lock-free.
func (t *Tree) SubtreeHash(n NodeID) uint64 {
	t.ensureSubHash()
	return t.subHash[n]
}

// Warm eagerly builds every lazily-cached structure of the tree — a
// deferred build first, then the pre/post index, the label and kind
// bitsets, the content fingerprint, and the per-node subtree
// fingerprints. A warmed tree is effectively read-only as long as it is
// not mutated, so multiple goroutines may evaluate queries over it
// concurrently; the parallel crawl frontier warms every fetched
// document on its worker before publishing it. Warm itself is safe to
// call from multiple goroutines (callers serialize on an internal
// lock), which covers fetchers that hand the same tree out under
// several URLs; the read accessors that fill a lazy cache (Pre,
// LabelBits, Fingerprint, …) must not run concurrently with the first
// Warm of a tree.
func (t *Tree) Warm() { t.WarmFrom(nil) }

// WarmFrom is Warm, except that a pending deferred build may reuse prev,
// an earlier version of the tree (the last one fetched from the same
// URL): htmlparse re-parses only the bytes in which the two sources
// differ and takes every other node, with its index entries and subtree
// hash, from prev. The result is the tree Warm would have built, node
// for node; a prev that is nil, t itself, unbuilt, mutated, not warmed
// or out of document order is ignored. prev is only read: any number
// of goroutines may read it (or WarmFrom other trees from it) meanwhile,
// as they may any warmed tree, but none may mutate it.
func (t *Tree) WarmFrom(prev *Tree) {
	if prev == t {
		prev = nil
	}
	t.warmMu.Lock()
	defer t.warmMu.Unlock()
	t.buildLocked(prev)
	t.ensureIndex()
	t.ensureBits()
	t.ensureSubHash()
}

// WarmIndex builds only the pre/post index (after a deferred build),
// under the same lock as Warm — the part interpreted evaluation reads.
// Use it when the label bitsets and fingerprint would be dead weight.
func (t *Tree) WarmIndex() {
	t.warmMu.Lock()
	defer t.warmMu.Unlock()
	t.buildLocked(nil)
	t.ensureIndex()
}

// attrRun returns the attribute entries of node n (none for text and
// comment nodes, whose payload is their data).
func (t *Tree) attrRun(n NodeID) []attrEntry {
	if t.kind[n] != Element {
		return nil
	}
	p := t.payload[n]
	return t.attrTab[p.off : p.off+p.n]
}

// setAttr sets attribute name of element n to val: an entry of that
// name is overwritten, else one is appended to n's run.
func (t *Tree) setAttr(n NodeID, name string, nameOff int, val span) {
	if t.kind[n] != Element {
		panic("dom: attribute set on a text or comment node")
	}
	t.subHashValid = false
	t.srcKey = 0
	p := t.payload[n]
	run := t.attrTab[p.off : p.off+p.n]
	for i := range run {
		if t.str(run[i].name) == name {
			run[i].val = val
			return
		}
	}
	if int(p.off+p.n) != len(t.attrTab) {
		// A run grows at the table's tail only: move it there first.
		p.off = uint32(len(t.attrTab))
		t.attrTab = append(t.attrTab, run...)
	}
	t.attrTab = append(t.attrTab, attrEntry{t.spanOf(name, nameOff), val})
	t.payload[n] = span{p.off, p.n + 1}
}

// SetAttr sets attribute name to value on element node n, replacing any
// existing attribute of the same name.
func (t *Tree) SetAttr(n NodeID, name, value string) {
	t.ready()
	t.setAttr(n, name, -1, t.spanOf(value, -1))
}

// SetAttrs replaces node n's whole attribute list in one call.
// Duplicate names follow SetAttr semantics: the first occurrence keeps
// its position, later occurrences overwrite its value. The input slice
// is not retained.
func (t *Tree) SetAttrs(n NodeID, attrs []Attr) {
	t.ready()
	if t.kind[n] == Element { // a text node's payload is its data
		t.payload[n].n = 0
		t.subHashValid = false
		t.srcKey = 0
	}
	for _, a := range attrs {
		t.SetAttr(n, a.Name, a.Value)
	}
}

// Attr returns the value of attribute name on node n and whether it is set.
func (t *Tree) Attr(n NodeID, name string) (string, bool) {
	t.ready()
	for _, e := range t.attrRun(n) {
		if t.str(e.name) == name {
			return t.str(e.val), true
		}
	}
	return "", false
}

// Attrs returns the attribute list of node n as a fresh slice (nil when
// n has none): the tree stores no []Attr. Hot paths use Attr.
func (t *Tree) Attrs(n NodeID) (out []Attr) {
	t.ready()
	for _, e := range t.attrRun(n) {
		out = append(out, Attr{Name: t.str(e.name), Value: t.str(e.val)})
	}
	return out
}

// Kind returns the node kind of n.
func (t *Tree) Kind(n NodeID) Kind {
	t.ready()
	return t.kind[n]
}

// Label returns the label of node n: the tag symbol for elements,
// "#text" for text nodes and "#comment" for comments. This realizes the
// paper's unary relations label_a(x).
func (t *Tree) Label(n NodeID) string {
	t.ready()
	return t.labelNames[t.labelID[n]]
}

// HasLabel reports label_a(n), i.e. whether node n carries label a.
func (t *Tree) HasLabel(n NodeID, a string) bool {
	t.ready()
	id, ok := t.labelIndex[a]
	return ok && t.labelID[n] == id
}

// Text returns the character data of a text or comment node ("" for
// element nodes).
func (t *Tree) Text(n NodeID) string {
	t.ready()
	if t.kind[n] == Element {
		return ""
	}
	return t.str(t.payload[n])
}

// SetText replaces the character data of a text or comment node.
func (t *Tree) SetText(n NodeID, data string) {
	t.ready()
	if t.kind[n] == Element {
		panic("dom: SetText on an element node")
	}
	t.payload[n] = t.spanOf(data, -1)
	t.subHashValid = false
	t.srcKey = 0
}

// Parent returns the parent of n, or Nil for the root.
func (t *Tree) Parent(n NodeID) NodeID {
	t.ready()
	return t.parent[n]
}

// FirstChild returns the leftmost child of n, or Nil. This is the binary
// relation firstchild(n, ·) of τ_ur: each node has at most one first
// child and is the first child of at most one node (the bidirectional
// functional dependency Theorem 2.4 relies on).
func (t *Tree) FirstChild(n NodeID) NodeID {
	t.ready()
	return t.firstChild[n]
}

// LastChild returns the rightmost child of n, or Nil.
func (t *Tree) LastChild(n NodeID) NodeID {
	t.ready()
	return t.lastChild[n]
}

// NextSibling returns the sibling immediately to the right of n, or Nil.
// This is the binary relation nextsibling(n, ·) of τ_ur.
func (t *Tree) NextSibling(n NodeID) NodeID {
	t.ready()
	return t.nextSibling[n]
}

// PrevSibling returns the sibling immediately to the left of n, or Nil
// (the inverse relation nextsibling(·, n)).
func (t *Tree) PrevSibling(n NodeID) NodeID {
	t.ready()
	return t.prevSibling[n]
}

// IsLeaf reports the unary relation leaf(n): n has no children.
func (t *Tree) IsLeaf(n NodeID) bool {
	t.ready()
	return t.firstChild[n] == Nil
}

// IsLastSibling reports the unary relation lastsibling(n): n is the
// rightmost child of its parent. As in the paper, the root is not a last
// sibling (it has no parent).
func (t *Tree) IsLastSibling(n NodeID) bool {
	t.ready()
	return t.parent[n] != Nil && t.nextSibling[n] == Nil
}

// IsFirstSibling reports that n is the leftmost child of its parent
// (the unary predicate Firstsibling of Section 4, used to express
// Firstchild(x,y) ⇔ Child(x,y) ∧ Firstsibling(y)).
func (t *Tree) IsFirstSibling(n NodeID) bool {
	t.ready()
	return t.parent[n] != Nil && t.prevSibling[n] == Nil
}

// IsRoot reports the unary relation root(n).
func (t *Tree) IsRoot(n NodeID) bool {
	t.ready()
	return t.parent[n] == Nil
}

// Children returns the child ids of n in sibling (document) order.
func (t *Tree) Children(n NodeID) []NodeID {
	t.ready()
	var out []NodeID
	for c := t.firstChild[n]; c != Nil; c = t.nextSibling[c] {
		out = append(out, c)
	}
	return out
}

// ChildCount returns the number of children of n.
func (t *Tree) ChildCount(n NodeID) int {
	t.ready()
	k := 0
	for c := t.firstChild[n]; c != Nil; c = t.nextSibling[c] {
		k++
	}
	return k
}

// ChildIndex returns the position of n among its siblings, counting from
// 1 (XPath convention), or 0 for the root.
func (t *Tree) ChildIndex(n NodeID) int {
	t.ready()
	if t.parent[n] == Nil {
		return 0
	}
	i := 1
	for s := t.prevSibling[n]; s != Nil; s = t.prevSibling[s] {
		i++
	}
	return i
}

// Reindex recomputes pre- and post-order numbers. It is called lazily by
// the order-dependent predicates; explicit calls are only useful for
// benchmarking.
func (t *Tree) Reindex() {
	t.ready()
	n := len(t.kind)
	t.sizeIndex(n)
	if n == 0 {
		t.indexed = true
		t.docOrdered = true
		return
	}
	var pre, post int32
	// Iterative DFS to avoid recursion depth limits on deep trees.
	type frame struct {
		node  NodeID
		child NodeID // next child to visit, or Nil when done
	}
	stack := make([]frame, 0, 64)
	t.pre[0] = 0
	pre = 1
	stack = append(stack, frame{0, t.firstChild[0]})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.child == Nil {
			t.post[f.node] = post
			post++
			// At pop time the preorder counter has advanced past exactly
			// the nodes of this subtree.
			t.size[f.node] = pre - t.pre[f.node]
			stack = stack[:len(stack)-1]
			continue
		}
		c := f.child
		f.child = t.nextSibling[c]
		t.pre[c] = pre
		pre++
		stack = append(stack, frame{c, t.firstChild[c]})
	}
	t.indexed = true
	t.docOrdered = true
	for i, p := range t.pre {
		if p != int32(i) {
			t.docOrdered = false
			break
		}
	}
}

// sizeIndex gives pre, post and size length n, in their own capacity
// when that suffices (the three share one allocation, of equal
// capacities); the caller overwrites what they held.
func (t *Tree) sizeIndex(n int) {
	if cap(t.pre) < n {
		t.setIndex(make([]int32, 3*t.columnRows(n)), n)
		return
	}
	t.pre, t.post, t.size = t.pre[:n], t.post[:n], t.size[:n]
}

// DocOrdered reports whether NodeIDs coincide with document order
// (pre[n] == n for every node) — true for every tree built strictly
// top-down left-to-right, as the HTML parser and the generators do.
// Consumers iterating ids in ascending order may then skip
// document-order sorting entirely.
func (t *Tree) DocOrdered() bool {
	t.ensureIndex()
	return t.docOrdered
}

func (t *Tree) ensureIndex() {
	if !t.indexed {
		t.Reindex()
	}
}

// Pre returns the preorder (document-order) number of n.
func (t *Tree) Pre(n NodeID) int {
	t.ensureIndex()
	return int(t.pre[n])
}

// Post returns the postorder number of n.
func (t *Tree) Post(n NodeID) int {
	t.ensureIndex()
	return int(t.post[n])
}

// SubtreeSize returns the number of nodes in the subtree rooted at n
// (including n itself).
func (t *Tree) SubtreeSize(n NodeID) int {
	t.ensureIndex()
	return int(t.size[n])
}

// DocBefore reports x ≺ y: the opening tag of x is reached strictly
// before that of y when reading the document left to right (Section 2.2).
func (t *Tree) DocBefore(x, y NodeID) bool {
	t.ensureIndex()
	return t.pre[x] < t.pre[y]
}

// IsAncestor reports Child+(x, y): x is a proper ancestor of y.
func (t *Tree) IsAncestor(x, y NodeID) bool {
	t.ensureIndex()
	return t.pre[x] < t.pre[y] && t.post[y] < t.post[x]
}

// IsAncestorOrSelf reports Child*(x, y).
func (t *Tree) IsAncestorOrSelf(x, y NodeID) bool {
	return x == y || t.IsAncestor(x, y)
}

// IsChild reports Child(x, y): y is a child of x. (Note the direction:
// the paper writes Child(x,y) for "y is a child of x".)
func (t *Tree) IsChild(x, y NodeID) bool {
	t.ready()
	return t.parent[y] == x
}

// Following reports the Following axis of Section 4:
//
//	Following(x, y) := ∃z1,z2 Child*(z1,x) ∧ Nextsibling+(z1,z2) ∧ Child*(z2,y)
//
// i.e. y starts after the subtree of x ends.
func (t *Tree) Following(x, y NodeID) bool {
	t.ensureIndex()
	return t.pre[y] > t.pre[x] && t.post[y] > t.post[x]
}

// FollowingSibling reports Nextsibling+(x, y).
func (t *Tree) FollowingSibling(x, y NodeID) bool {
	t.ready()
	if t.parent[x] == Nil || t.parent[x] != t.parent[y] {
		return false
	}
	t.ensureIndex()
	return t.pre[y] > t.pre[x]
}

// InDocumentOrder returns all node ids sorted by document order.
func (t *Tree) InDocumentOrder() []NodeID {
	t.ensureIndex()
	out := make([]NodeID, t.Size())
	for i := range out {
		out[i] = NodeID(i)
	}
	sort.Slice(out, func(i, j int) bool { return t.pre[out[i]] < t.pre[out[j]] })
	return out
}

// SortDocOrder sorts nodes in place by document order and removes
// duplicates, returning the (possibly shortened) slice. Query engines use
// it to return result node sets in the order mandated by the XML
// standards the paper cites.
func (t *Tree) SortDocOrder(nodes []NodeID) []NodeID {
	t.ensureIndex()
	sort.Slice(nodes, func(i, j int) bool { return t.pre[nodes[i]] < t.pre[nodes[j]] })
	out := nodes[:0]
	for i, n := range nodes {
		if i == 0 || nodes[i-1] != n {
			out = append(out, n)
		}
	}
	return out
}

// Descendants returns all proper descendants of n in document order.
func (t *Tree) Descendants(n NodeID) []NodeID {
	var out []NodeID
	t.WalkSubtree(n, func(m NodeID) {
		if m != n {
			out = append(out, m)
		}
	})
	return out
}

// WalkSubtree visits n and every descendant of n in document order. It
// walks the firstChild/nextSibling links directly with no auxiliary
// storage, so a walk allocates nothing — ElementText and the pattern
// matchers call this on every candidate node of the hot evaluation
// loops.
func (t *Tree) WalkSubtree(n NodeID, visit func(NodeID)) {
	t.ready()
	t.walkSubtree(n, visit)
}

// walkSubtree is WalkSubtree on a built tree. It is small enough to
// inline, and with it the visitor, into the loops of ElementText and
// AppendElementText.
func (t *Tree) walkSubtree(n NodeID, visit func(NodeID)) {
	m := n
	for {
		visit(m)
		if c := t.firstChild[m]; c != Nil {
			m = c
			continue
		}
		for m != n && t.nextSibling[m] == Nil {
			m = t.parent[m]
		}
		if m == n {
			return
		}
		m = t.nextSibling[m]
	}
}

// AppendSubtree appends n and every descendant of n, in document order,
// to dst and returns the extended slice: WalkSubtree for callers that
// want the nodes themselves, without a visitor call per node.
func (t *Tree) AppendSubtree(dst []NodeID, n NodeID) []NodeID {
	t.ready()
	t.walkSubtree(n, func(m NodeID) { dst = append(dst, m) })
	return dst
}

// Walk visits every node of the tree in document order.
func (t *Tree) Walk(visit func(NodeID)) {
	if t.Size() == 0 {
		return
	}
	t.WalkSubtree(t.Root(), visit)
}

// ElementText returns the concatenation of all text-node data in the
// subtree rooted at n, in document order, as a string of its own. This
// is the "elementtext" notion used by Elog attribute conditions
// (Figure 5).
func (t *Tree) ElementText(n NodeID) string {
	t.ready()
	var b strings.Builder
	t.walkSubtree(n, func(m NodeID) {
		if t.kind[m] == Text {
			b.WriteString(t.str(t.payload[m]))
		}
	})
	return b.String()
}

// AppendElementText appends ElementText(n) to buf and returns the
// extended slice: the form for callers that reuse one buffer across
// candidate nodes, as Elog's elementtext conditions do.
func (t *Tree) AppendElementText(buf []byte, n NodeID) []byte {
	t.ready()
	t.walkSubtree(n, func(m NodeID) {
		if t.kind[m] == Text {
			buf = append(buf, t.str(t.payload[m])...)
		}
	})
	return buf
}

// Depth returns the number of edges from the root to n.
func (t *Tree) Depth(n NodeID) int {
	t.ready()
	d := 0
	for p := t.parent[n]; p != Nil; p = t.parent[p] {
		d++
	}
	return d
}

// Height returns the height of the tree (a single node has height 0).
func (t *Tree) Height() int {
	max := 0
	for n := 0; n < t.Size(); n++ {
		if d := t.Depth(NodeID(n)); d > max {
			max = d
		}
	}
	return max
}

// PathLabels returns the labels on the path from x (exclusive) down to y
// (inclusive), or nil and false if y is not a proper descendant of x.
// This is the word a1…an such that subelem_{a1…an}(x, y) holds
// (Section 3.2).
func (t *Tree) PathLabels(x, y NodeID) ([]string, bool) {
	if !t.IsAncestor(x, y) {
		return nil, false
	}
	var rev []string
	for n := y; n != x; n = t.parent[n] {
		rev = append(rev, t.Label(n))
	}
	out := make([]string, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out, true
}

// Clone returns a deep copy of the tree; the two share the (immutable)
// source string.
func (t *Tree) Clone() *Tree {
	t.ready()
	return &Tree{
		src:         t.src,
		kind:        slices.Clone(t.kind),
		labelID:     slices.Clone(t.labelID),
		payload:     slices.Clone(t.payload),
		parent:      slices.Clone(t.parent),
		firstChild:  slices.Clone(t.firstChild),
		lastChild:   slices.Clone(t.lastChild),
		nextSibling: slices.Clone(t.nextSibling),
		prevSibling: slices.Clone(t.prevSibling),
		attrTab:     slices.Clone(t.attrTab),
		side:        slices.Clone(t.side),
		labelNames:  slices.Clone(t.labelNames),
		labelIndex:  maps.Clone(t.labelIndex),
	}
}

// Equal reports whether two trees are isomorphic including labels, text,
// attributes, and sibling order.
func Equal(a, b *Tree) bool {
	a.ready()
	b.ready()
	if a.Size() != b.Size() {
		return false
	}
	if a.Size() == 0 {
		return true
	}
	var eq func(x, y NodeID) bool
	eq = func(x, y NodeID) bool {
		if a.kind[x] != b.kind[y] || a.Label(x) != b.Label(y) || a.Text(x) != b.Text(y) {
			return false
		}
		run := a.attrRun(x)
		if len(run) != len(b.attrRun(y)) {
			return false
		}
		for _, e := range run {
			v, ok := b.Attr(y, a.str(e.name))
			if !ok || v != a.str(e.val) {
				return false
			}
		}
		cx, cy := a.firstChild[x], b.firstChild[y]
		for cx != Nil && cy != Nil {
			if !eq(cx, cy) {
				return false
			}
			cx, cy = a.nextSibling[cx], b.nextSibling[cy]
		}
		return cx == Nil && cy == Nil
	}
	return eq(a.Root(), b.Root())
}

// String renders the tree in the nested-term notation accepted by
// ParseTerm, e.g. "a(b,c(d))". Text nodes render as quoted strings.
func (t *Tree) String() string {
	t.ready()
	if t.Size() == 0 {
		return "<empty>"
	}
	var b strings.Builder
	var rec func(n NodeID)
	rec = func(n NodeID) {
		switch t.kind[n] {
		case Text:
			fmt.Fprintf(&b, "%q", t.Text(n))
			return
		case Comment:
			fmt.Fprintf(&b, "comment(%q)", t.Text(n))
			return
		}
		b.WriteString(t.Label(n))
		if t.firstChild[n] == Nil {
			return
		}
		b.WriteByte('(')
		for c := t.firstChild[n]; c != Nil; c = t.nextSibling[c] {
			if c != t.firstChild[n] {
				b.WriteByte(',')
			}
			rec(c)
		}
		b.WriteByte(')')
	}
	rec(t.Root())
	return b.String()
}
