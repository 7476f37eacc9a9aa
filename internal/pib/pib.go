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

// Instance is one pattern instance. It carries no memoized state (the
// incremental transform keeps the hashes it derives in its own scratch),
// so a retained base costs its instances' fields and nothing more.
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
	// Doc is the document tree the instance lives in (nil only for
	// detached string instances, which keep a pointer anyway for
	// provenance).
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

// instKey is the identity of an instance for deduplication: pattern,
// document URL, parent id, every node and, for string instances, the
// text. It is exact, not a hash: pattern and URL are the ids the base
// interned the strings under (Base.intern), and aux holds whatever does
// not fit the fixed fields. It is a comparable struct so that Add, which
// runs once per candidate derivation on the evaluator's hottest path,
// hashes the fields in place instead of building a string; only
// multi-node (sequence) instances allocate, for the nodes after the
// first.
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
	// exist only while the base is being built (nil once sealed).
	all   map[instKey]*Instance
	ids   map[string]uint32
	byPat map[string][]*Instance
	next  int32
	// slab backs the instances AddCopy admits; hint sizes its first chunk.
	slab []Instance
	hint int
	// bytes is the approximate heap footprint, computed by Seal.
	bytes int
}

// NewBase returns an empty instance base.
func NewBase() *Base { return NewBaseSize(0) }

// NewBaseSize returns an empty base sized for about hint instances (an
// earlier evaluation's Count, say): the dedup table does not rehash and
// AddCopy's slab does not regrow while that many arrive.
func NewBaseSize(hint int) *Base {
	return &Base{all: make(map[instKey]*Instance, hint), ids: map[string]uint32{},
		byPat: map[string][]*Instance{}, hint: hint}
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

// Seal declares the base final, which is what an evaluation that ran to
// completion returns and what the transforms require: the dedup table,
// which nothing reads once the last instance is in, is dropped (Count
// and the per-pattern lists remain), and every Children list is put in
// document order in place. Sealing a sealed base does nothing; Add and
// AddCopy unseal, rebuilding the table from the instances.
func (b *Base) Seal() {
	if b.all == nil {
		return
	}
	b.all, b.ids = nil, nil
	b.bytes = int(unsafe.Sizeof(*b))
	for _, list := range b.byPat {
		b.bytes += 48 + 8*cap(list) // a map slot and the list
	}
	for in := range b.each {
		orderChildren(in)
		// The instance, its nodes, its child list and, for a string
		// instance, the value.
		b.bytes += int(unsafe.Sizeof(*in)) + 4*cap(in.Nodes) + 8*cap(in.Children) + len(in.Text)
	}
}

// Bytes returns the approximate heap footprint of a sealed base (0
// before Seal). The document trees the instances point into are not
// counted: the fetch layer owns and shares them.
func (b *Base) Bytes() int { return b.bytes }

// table returns the dedup table, rebuilding it when the base was sealed.
// Keys are only comparable with the ids of the table they are in, so
// callers fetch the table before they build a key.
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
	b.link(k, in)
	return in, true
}

// AddCopy is Add for a scratch instance the caller keeps: a duplicate
// costs no allocation at all, and a new instance is copied into the
// base's own slab rather than into an allocation of its own, so the
// canonical instance returned is never the caller's.
func (b *Base) AddCopy(in *Instance) (*Instance, bool) {
	all := b.table()
	k := b.key(in)
	if prev, ok := all[k]; ok {
		return prev, false
	}
	if len(b.slab) == cap(b.slab) {
		b.slab = make([]Instance, 0, max(64, b.hint-int(b.next)))
	}
	b.slab = append(b.slab, *in)
	p := &b.slab[len(b.slab)-1]
	b.link(k, p)
	return p, true
}

// link admits a new instance under its key.
func (b *Base) link(k instKey, in *Instance) {
	in.ID = b.next
	b.next++
	b.all[k] = in
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
func (b *Base) Patterns() []string {
	out := make([]string, 0, len(b.byPat))
	for p := range b.byPat {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Count returns the total number of instances.
func (b *Base) Count() int { return int(b.next) }

// Dump returns a canonical textual serialization of the whole base: one
// line per instance, patterns in sorted order, instances in insertion
// order, including the sequentially assigned ids and parent ids. Two
// bases serialize identically exactly when every instance — and the
// order it was committed in — matches, which is what the differential
// tests for parallel evaluation pin.
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
	// KeepText controls whether leaf instances emit their text content
	// (default true). Patterns listed in SuppressText never emit text.
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
	if d.Rename != nil {
		if n, ok := d.Rename[pattern]; ok {
			return n
		}
	}
	return pattern
}

// Transform runs the XML Transformer: it maps the instance base to an
// XML document following the parent multigraph, omitting auxiliary
// patterns tree-minor style and preserving document order among
// siblings. It seals the base.
func (d *Design) Transform(b *Base) *xmlenc.Node {
	b.Seal()
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
		d.emitChildren(docInst, target)
	}
	return root
}

// emitChildren emits the child instances of in into the XML element out.
func (d *Design) emitChildren(in *Instance, out *xmlenc.Node) {
	for _, c := range in.Children {
		if d.Auxiliary[c.Pattern] {
			// Tree minor: skip the node, promote its children.
			d.emitChildren(c, out)
			continue
		}
		el := xmlenc.NewElement(d.elementName(c.Pattern))
		out.Append(el)
		d.emitChildren(c, el)
		if (len(el.Children) == 0 || d.AlwaysText[c.Pattern]) && !d.SuppressText[c.Pattern] {
			el.Text = strings.TrimSpace(c.TextContent())
		}
	}
}

// orderChildren sorts the children, in place and stably, by document
// order of their first node (string instances keep their relative
// insertion order, anchored at their parent's position). Evaluation
// commits one rule's children in document order, so a list is checked
// first and usually left alone.
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

// TransformString is Transform followed by indented serialization.
func (d *Design) TransformString(b *Base) string {
	return xmlenc.MarshalIndent(d.Transform(b))
}
