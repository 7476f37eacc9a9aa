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

	"repro/internal/dom"
	"repro/internal/xmlenc"
)

// Kind distinguishes the instance flavours of Lixto extraction.
type Kind int

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

// Instance is one pattern instance.
type Instance struct {
	ID      int
	Pattern string
	Kind    Kind
	// Doc is the document tree the instance lives in (nil only for
	// detached string instances, which keep a pointer anyway for
	// provenance).
	Doc *dom.Tree
	// URL identifies the document (provenance; also the crawl address).
	URL string
	// Nodes are the instance's nodes: one for NodeInstance and
	// DocumentInstance, one or more consecutive siblings for
	// SequenceInstance, empty for StringInstance.
	Nodes []dom.NodeID
	// Text is the string value of a StringInstance.
	Text string
	// Parent is the instance this one was extracted from (nil for
	// document instances).
	Parent   *Instance
	Children []*Instance

	// Memoized transform-time state (computed after evaluation has
	// finished, when the instance's children and document are final):
	// the content-addressed identity hashes of incremental.go and the
	// document-ordered child list.
	cHash, oHash     uint64
	cHashOK, oHashOK bool
	ordKids          []*Instance
	ordOK            bool
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
// text. It is a comparable struct so that Add, which runs once per
// candidate derivation on the evaluator's hottest path, hashes the
// fields in place instead of building a string; only multi-node
// (sequence) instances allocate, for the nodes after the first.
type instKey struct {
	pattern, url string
	text         string // string instances only
	rest         string // Nodes[1:], four bytes each
	parent       int    // Parent.ID+1; 0 for a parentless instance
	nodes        int    // len(Nodes)
	first        dom.NodeID
	isString     bool
}

func (in *Instance) key() instKey {
	k := instKey{pattern: in.Pattern, url: in.URL, nodes: len(in.Nodes), isString: in.Kind == StringInstance}
	if in.Parent != nil {
		k.parent = in.Parent.ID + 1
	}
	if k.isString {
		k.text = in.Text
	}
	if len(in.Nodes) > 0 {
		k.first = in.Nodes[0]
	}
	if len(in.Nodes) > 1 {
		b := make([]byte, 0, 4*(len(in.Nodes)-1))
		for _, nd := range in.Nodes[1:] {
			b = binary.LittleEndian.AppendUint32(b, uint32(nd))
		}
		k.rest = string(b)
	}
	return k
}

// Base is the pattern instance base.
type Base struct {
	// Roots are the document instances, in wrapping order.
	Roots []*Instance
	all   map[instKey]*Instance
	byPat map[string][]*Instance
	next  int
	// slab backs the instances AddCopy admits; hint sizes its first chunk.
	slab []Instance
	hint int
	// hashes memoizes contentHashes (incremental.go).
	hashes []uint64
}

// NewBase returns an empty instance base.
func NewBase() *Base { return NewBaseSize(0) }

// NewBaseSize returns an empty base sized for about hint instances (an
// earlier evaluation's Count, say): the dedup table does not rehash and
// AddCopy's slab does not regrow while that many arrive.
func NewBaseSize(hint int) *Base {
	return &Base{all: make(map[instKey]*Instance, hint), byPat: map[string][]*Instance{}, hint: hint}
}

// Add inserts an instance (deduplicating) and returns the canonical
// instance plus whether it was new. Parent links are fixed at insert;
// the instance is appended to its parent's children in insertion order.
func (b *Base) Add(in *Instance) (*Instance, bool) {
	k := in.key()
	if prev, ok := b.all[k]; ok {
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
	k := in.key()
	if prev, ok := b.all[k]; ok {
		return prev, false
	}
	if len(b.slab) == cap(b.slab) {
		b.slab = make([]Instance, 0, max(64, b.hint-len(b.all)))
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
func (b *Base) Count() int { return len(b.all) }

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
// siblings.
func (d *Design) Transform(b *Base) *xmlenc.Node {
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
	children := orderedChildren(in)
	for _, c := range children {
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

// orderedChildren returns the children sorted by document order of their
// first node (string instances keep their relative insertion order,
// anchored at their parent's position). Evaluation commits children in
// document order, so the usual answer is in.Children itself; only a list
// found out of order is copied and sorted. The result is memoized: it is
// only requested at transform time, when the base is final, and the
// incremental path needs it twice per instance (once for the output
// hash, once for emission).
func orderedChildren(in *Instance) []*Instance {
	if in.ordOK {
		return in.ordKids
	}
	pos := func(c *Instance) int {
		if len(c.Nodes) > 0 && c.Doc != nil {
			return c.Doc.Pre(c.Nodes[0])
		}
		if len(in.Nodes) > 0 && in.Doc != nil {
			return in.Doc.Pre(in.Nodes[0])
		}
		return 0
	}
	out := in.Children
	for i, prev := 0, 0; i < len(out); i++ {
		p := pos(out[i])
		if p < prev {
			out = append([]*Instance(nil), in.Children...)
			sort.SliceStable(out, func(i, j int) bool { return pos(out[i]) < pos(out[j]) })
			break
		}
		prev = p
	}
	in.ordKids, in.ordOK = out, true
	return out
}

// TransformString is Transform followed by indented serialization.
func (d *Design) TransformString(b *Base) string {
	return xmlenc.MarshalIndent(d.Transform(b))
}
