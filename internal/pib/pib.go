// Package pib implements the pattern instance base (Section 3.1): the
// hierarchical data structure the Extractor produces, "encoding the
// extracted instances as hierarchically ordered trees and strings",
// together with the XML Designer / XML Transformer pair that maps it to
// XML output.
//
// The binary pattern predicates of Elog (Section 3.3) define a
// multigraph over instances — each instance knows the parent instance
// "in terms of which it was defined" — and that multigraph is the basis
// of the XML transformation. Auxiliary patterns are filtered out in the
// tree-minor fashion of Section 2.1: their children are promoted to the
// nearest non-auxiliary ancestor, preserving document order.
package pib

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"unsafe"

	"repro/internal/dom"
	"repro/internal/xmlenc"
)

// Kind distinguishes the instance flavours of Lixto extraction.
type Kind uint8

const (
	// NodeInstance is a single tree node (subelem extraction).
	NodeInstance Kind = iota
	// SequenceInstance is a run of consecutive sibling nodes (subsq).
	SequenceInstance
	// StringInstance is a character string (subtext, subatt).
	StringInstance
	// DocumentInstance is the root instance of a wrapped document.
	DocumentInstance
)

// Instance is one pattern instance. It carries no memoized state, so a
// retained base costs its instances' fields and nothing more.
type Instance struct {
	Pattern string
	// URL identifies the document (provenance; also the crawl address).
	URL string
	// Text is the string value of a StringInstance.
	Text string
	// Nodes are the instance's nodes: one for NodeInstance and
	// DocumentInstance, one or more consecutive siblings for
	// SequenceInstance, empty for StringInstance.
	Nodes []dom.NodeID
	// Doc is the document tree the instance lives in.
	Doc *dom.Tree
	// Parent is the instance this one was extracted from (nil for
	// document instances).
	Parent *Instance
	// Children are the instances extracted from this one: in insertion
	// order while the base is being built, in document order once it is
	// sealed (see Base.Seal).
	Children []*Instance
	ID       int32
	Kind     Kind
	// Rule is one plus the index, in its program, of the rule that
	// derived the instance (0 when unknown): what grafting copies by.
	Rule uint16
}

// TextContent returns the instance's text: the stored string for string
// instances, the concatenated element text otherwise.
func (in *Instance) TextContent() string {
	if in.Kind == StringInstance {
		return in.Text
	}
	var b strings.Builder
	for _, n := range in.Nodes {
		b.WriteString(in.Doc.ElementText(n))
	}
	return b.String()
}

// instKey is the exact identity of an instance for deduplication:
// pattern and URL (as ids, Base.intern), parent id, every node and, for
// string instances, the text, in a comparable struct the dedup map
// hashes in place; only sequence instances allocate, for aux.
type instKey struct {
	aux          string // Nodes[1:], four bytes each, then Text (string instances only)
	pattern, url uint32
	parent       int32 // Parent.ID+1; 0 for a parentless instance
	nodes        int32 // len(Nodes), which also delimits the two parts of aux
	first        dom.NodeID
	isString     bool
}

func (b *Base) key(in *Instance) instKey {
	k := instKey{pattern: b.intern(in.Pattern), url: b.intern(in.URL), nodes: int32(len(in.Nodes)), isString: in.Kind == StringInstance}
	if in.Parent != nil {
		k.parent = in.Parent.ID + 1
	}
	if k.isString {
		k.aux = in.Text
	}
	if len(in.Nodes) > 0 {
		k.first = in.Nodes[0]
	}
	if len(in.Nodes) > 1 {
		rest := make([]byte, 0, 4*(len(in.Nodes)-1)+len(k.aux))
		for _, nd := range in.Nodes[1:] {
			rest = binary.LittleEndian.AppendUint32(rest, uint32(nd))
		}
		k.aux = string(append(rest, k.aux...))
	}
	return k
}

// intern returns the id of a pattern name or URL in this base's keys.
func (b *Base) intern(s string) uint32 {
	id, ok := b.ids[s]
	if !ok {
		id = uint32(len(b.ids))
		b.ids[s] = id
	}
	return id
}

// Base is the pattern instance base.
type Base struct {
	// Roots are the document instances, in wrapping order.
	Roots []*Instance
	// all is the dedup table and ids the string ids its keys use; both
	// exist only while the base is being built (nil once sealed), and
	// tab is the pooled pair they came from, if they did.
	all   map[instKey]*Instance
	ids   map[string]uint32
	tab   *table
	byPat map[string][]*Instance
	next  int32
	// slab backs the instances AddCopy and Graft admit, in the last of
	// chunks, hint sizing them; ptrs backs a maintained base's pattern
	// lists and Graft's child lists, nodes Graft's node lists, first cut
	// from the pooled storage ls.
	slab   []Instance
	ptrs   []*Instance
	nodes  []dom.NodeID
	hint   int
	chunks []*store
	drew   bool // a chunk came from the pool
	ls     *lists
	// bytes is the approximate heap footprint, computed by Seal.
	bytes int
	// pairs is the counterpart index of a maintained base (NewBaseFrom).
	pairs *pairing
	// Origin is what derived the base; bases maintain from equal Origins.
	Origin any
}

// NewBase returns an empty instance base.
func NewBase() *Base { return NewBaseSize(0) }

// NewBaseSize returns an empty base whose dedup table and slab hold
// about hint instances (an earlier evaluation's Count, say) unresized.
func NewBaseSize(hint int) *Base {
	b := &Base{hint: hint}
	b.drawTable(hint)
	b.drawStore(hint)
	return b
}

// each ranges over every instance, pattern by pattern (in no particular
// pattern order), instances of a pattern in insertion order.
func (b *Base) each(yield func(*Instance) bool) {
	for _, list := range b.byPat {
		for _, in := range list {
			if !yield(in) {
				return
			}
		}
	}
}

// Seal declares the base final, as evaluations return it and the
// transforms require: the dedup table is dropped and every Children list
// put in document order in place. Sealing a sealed base does nothing;
// Add and AddCopy unseal, rebuilding the table from the instances.
func (b *Base) Seal() {
	if b.all == nil {
		return
	}
	b.releaseTable()
	// The base, and the room left in the slabs it cuts instances and
	// lists from (what is cut is counted below).
	b.bytes = int(unsafe.Sizeof(*b)) + int(unsafe.Sizeof(Instance{}))*(cap(b.slab)-len(b.slab)) +
		8*(cap(b.ptrs)-len(b.ptrs)) + 4*(cap(b.nodes)-len(b.nodes))
	for _, list := range b.byPat {
		b.bytes += 48 + 8*cap(list) // a map slot and the list
	}
	for in := range b.each {
		orderChildren(in)
		b.bytes += int(unsafe.Sizeof(*in)) + 4*cap(in.Nodes) + 8*cap(in.Children) + len(in.Text)
	}
}

// Bytes returns the approximate heap footprint of a sealed base (0
// before Seal), not counting the fetch layer's document trees.
func (b *Base) Bytes() int { return b.bytes }

// table returns the dedup table, rebuilding it when the base was sealed
// (fetch it before building a key: keys hold the table's string ids).
func (b *Base) table() map[instKey]*Instance {
	if b.all == nil {
		b.all, b.ids = make(map[instKey]*Instance, b.next), map[string]uint32{}
		for in := range b.each {
			b.all[b.key(in)] = in
		}
	}
	return b.all
}

// Add inserts an instance (deduplicating) and returns the canonical
// instance plus whether it was new. Parent links are fixed at insert;
// the instance is appended to its parent's children in insertion order.
func (b *Base) Add(in *Instance) (*Instance, bool) {
	all := b.table()
	k := b.key(in)
	if prev, ok := all[k]; ok {
		return prev, false
	}
	all[k] = in
	b.link(in)
	return in, true
}

// AddCopy is Add for a scratch instance the caller keeps: a new
// instance is copied into the base's slab, a duplicate costs nothing.
func (b *Base) AddCopy(in *Instance) (*Instance, bool) {
	all := b.table()
	k := b.key(in)
	if prev, ok := all[k]; ok {
		return prev, false
	}
	p := b.alloc(in)
	all[k] = p
	b.link(p)
	return p, true
}

// alloc copies an instance into the slab, continuing it in a new chunk
// when it is full.
func (b *Base) alloc(in *Instance) *Instance {
	if len(b.slab) == cap(b.slab) {
		b.growSlab()
	}
	b.slab = append(b.slab, *in)
	return &b.slab[len(b.slab)-1]
}

// link admits a new instance: id, pattern list, parent's children.
func (b *Base) link(in *Instance) {
	in.ID = b.next
	b.next++
	b.byPat[in.Pattern] = append(b.byPat[in.Pattern], in)
	if in.Parent != nil {
		in.Parent.Children = append(in.Parent.Children, in)
	} else {
		b.Roots = append(b.Roots, in)
	}
}

// Instances returns the instances of a pattern, in insertion order.
func (b *Base) Instances(pattern string) []*Instance { return b.byPat[pattern] }

// Patterns returns the pattern names present, sorted.
func (b *Base) Patterns() []string { return slices.Sorted(maps.Keys(b.byPat)) }

// Count returns the total number of instances.
func (b *Base) Count() int { return int(b.next) }

// Dump returns a canonical serialization of the base: one line per
// instance with its id and parent id, patterns sorted, instances in
// insertion order, so two bases dump alike exactly when every instance
// and its commit order match.
func (b *Base) Dump() string {
	var sb strings.Builder
	for _, p := range b.Patterns() {
		for _, in := range b.byPat[p] {
			fmt.Fprintf(&sb, "%s#%d kind=%d url=%s nodes=%v", in.Pattern, in.ID, in.Kind, in.URL, in.Nodes)
			if in.Kind == StringInstance {
				fmt.Fprintf(&sb, " text=%q", in.Text)
			}
			if in.Parent != nil {
				fmt.Fprintf(&sb, " parent=%d", in.Parent.ID)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// Design is the XML Designer configuration (Section 3.1): which
// intensional predicates are auxiliary, and what labels nodes receive.
// The zero value emits every pattern under its own name — "the pattern
// name can act as a default node label".
type Design struct {
	// Auxiliary patterns do not propagate to the output tree; their
	// children attach to the nearest non-auxiliary ancestor.
	Auxiliary map[string]bool
	// Rename maps pattern names to XML element names.
	Rename map[string]string
	// RootName is the document element name (default "lixto").
	RootName string
	// Leaf instances emit their text content unless their pattern is in
	// SuppressText.
	SuppressText map[string]bool
	// AlwaysText patterns emit their text content even when they have
	// child instances (useful when a pattern carries both a value and
	// sub-patterns, like a price with an extracted currency).
	AlwaysText map[string]bool
	// EmitURL adds a url attribute on document instances (default on
	// for multi-document bases).
	EmitURL bool
}

// elementName resolves the output element name of a pattern.
func (d *Design) elementName(pattern string) string {
	if n, ok := d.Rename[pattern]; ok {
		return n
	}
	return pattern
}

// Transform runs the XML Transformer: it maps the instance base to an
// XML document following the parent multigraph, omitting auxiliary
// patterns tree-minor style and preserving document order among
// siblings. It seals the base.
func (d *Design) Transform(b *Base) *xmlenc.Node {
	b.Seal()
	return d.render(b, nil)
}

// render builds the root and document-level elements and emits each
// document's children into them, through oc when it is not nil.
func (d *Design) render(b *Base, oc *OutputCache) *xmlenc.Node {
	rootName := d.RootName
	if rootName == "" {
		rootName = "lixto"
	}
	root := xmlenc.NewElement(rootName)
	for _, docInst := range b.Roots {
		target := root
		if !d.Auxiliary[docInst.Pattern] {
			target = xmlenc.NewElement(d.elementName(docInst.Pattern))
			if d.EmitURL && docInst.URL != "" {
				target.SetAttr("url", docInst.URL)
			}
			root.Append(target)
		}
		d.emitChildren(docInst, target, oc)
	}
	return root
}

// emitChildren emits the child instances of in into out, returning the
// number of output nodes placed. Through an output cache, a subtree
// emitted last tick is spliced and a fresh one frozen and cached.
func (d *Design) emitChildren(in *Instance, out *xmlenc.Node, oc *OutputCache) uint64 {
	var total uint64
	for _, c := range in.Children {
		if d.Auxiliary[c.Pattern] {
			// Tree minor: skip the node, promote its children.
			total += d.emitChildren(c, out, oc)
			continue
		}
		var key uint64
		if oc != nil {
			key = oc.outputHash(c)
			// Pop it: a *Node goes to one position, even among equal siblings.
			if list := oc.last.subs[key]; len(list) > 0 {
				sub := list[len(list)-1]
				oc.last.subs[key] = list[:len(list)-1]
				out.Append(sub.el)
				oc.put(key, sub)
				oc.reused += sub.nodes
				total += sub.nodes
				continue
			}
		}
		el := xmlenc.NewElement(d.elementName(c.Pattern))
		out.Append(el)
		nodes := d.emitChildren(c, el, oc) + 1
		if (len(el.Children) == 0 || d.AlwaysText[c.Pattern]) && !d.SuppressText[c.Pattern] {
			el.Text = strings.TrimSpace(c.TextContent())
		}
		if oc != nil {
			el.Freeze()
			oc.put(key, cachedSub{el: el, nodes: nodes})
			oc.built++
		}
		total += nodes
	}
	return total
}

// orderChildren sorts the children, in place and stably, by document
// order of their first node (string instances at their parent's), after
// checking: evaluation commits one rule's children in that order.
func orderChildren(in *Instance) {
	pos := func(c *Instance) int {
		if len(c.Nodes) > 0 && c.Doc != nil {
			return c.Doc.Pre(c.Nodes[0])
		}
		if len(in.Nodes) > 0 && in.Doc != nil {
			return in.Doc.Pre(in.Nodes[0])
		}
		return 0
	}
	kids := in.Children
	for i, prev := 0, 0; i < len(kids); i++ {
		p := pos(kids[i])
		if p < prev {
			sort.SliceStable(kids, func(i, j int) bool { return pos(kids[i]) < pos(kids[j]) })
			return
		}
		prev = p
	}
}
