package dom_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dom"
	"repro/internal/htmlparse"
)

// hasPointers reports whether a value of type t holds anything the
// garbage collector must trace.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true // string, slice, map, pointer, interface, chan, func
}

// TestTreeArenasPointerFree pins the layout property the tree exists
// for: every slice that grows with the node or attribute count holds no
// pointers, so a live tree costs the collector nothing to mark. Only
// the side table of non-source strings and the per-label bitset index
// (one slice header per distinct label) may hold any.
func TestTreeArenasPointerFree(t *testing.T) {
	perSymbol := map[string]bool{"side": true, "labelNames": true, "labelBits": true}
	tree := reflect.TypeOf((*dom.Tree)(nil)).Elem()
	arenas := 0
	for i := 0; i < tree.NumField(); i++ {
		f := tree.Field(i)
		if f.Type.Kind() != reflect.Slice || perSymbol[f.Name] {
			continue
		}
		arenas++
		if hasPointers(f.Type.Elem()) {
			t.Errorf("Tree.%s: element type %s holds pointers", f.Name, f.Type.Elem())
		}
	}
	if arenas < 10 {
		t.Errorf("found only %d per-node slices in Tree: has the layout moved out of reach of this test?", arenas)
	}
}

// mixedSource exercises every way character data enters a parsed tree:
// plain source spans, entity-decoded text and attribute values,
// upper-case tag and attribute names, valueless and duplicate
// attributes, raw-text elements and comments.
const mixedSource = `<html lang=en><body class="main"><DIV ID=Top Data-X='a &amp; b' hidden>one &lt; two<!-- note -->` +
	`<script>if (a < b) { x("&amp;") }</script><p a=1 a=2>plain</p><TextArea>raw <b>text</b></TEXTAREA>` +
	`<ul><li>x<li>&#65;&#x42;c</ul><Custom-Tag Attr=V></custom-tag></DIV><p></p>tail &unknown; text</body></html>`

// rebuild copies t node by node through the string API only, so the
// result holds no source span.
func rebuild(t *dom.Tree) *dom.Tree {
	c := dom.New(0)
	for i := 0; i < t.Size(); i++ {
		n := dom.NodeID(i)
		var id dom.NodeID
		switch {
		case t.Parent(n) == dom.Nil:
			id = c.AddRoot(t.Label(n))
		case t.Kind(n) == dom.Text:
			id = c.AppendText(t.Parent(n), t.Text(n))
		case t.Kind(n) == dom.Comment:
			id = c.AppendComment(t.Parent(n), t.Text(n))
		default:
			id = c.AppendChild(t.Parent(n), t.Label(n))
		}
		if i%2 == 0 {
			c.SetAttrs(id, t.Attrs(n))
		} else {
			for _, a := range t.Attrs(n) {
				c.SetAttr(id, a.Name, a.Value)
			}
		}
	}
	return c
}

// sameTree compares two trees through every read accessor the layout
// change touched, the subtree hashes and the fingerprint.
func sameTree(t *testing.T, what string, a, b *dom.Tree) {
	t.Helper()
	if !dom.Equal(a, b) || !dom.Equal(b, a) || a.String() != b.String() {
		t.Fatalf("%s: trees differ:\n%s\n%s", what, a, b)
	}
	for i := 0; i < a.Size(); i++ {
		n := dom.NodeID(i)
		if a.Kind(n) != b.Kind(n) || a.Label(n) != b.Label(n) || a.Text(n) != b.Text(n) ||
			!reflect.DeepEqual(a.Attrs(n), b.Attrs(n)) || a.ElementText(n) != b.ElementText(n) {
			t.Fatalf("%s: node %d: %v %q %q %v vs %v %q %q %v", what, i,
				a.Kind(n), a.Label(n), a.Text(n), a.Attrs(n), b.Kind(n), b.Label(n), b.Text(n), b.Attrs(n))
		}
		for _, at := range a.Attrs(n) {
			if v, ok := b.Attr(n, at.Name); !ok || v != at.Value {
				t.Fatalf("%s: node %d: Attr(%q) = %q, %v, want %q", what, i, at.Name, v, ok, at.Value)
			}
		}
		if _, ok := a.Attr(n, "no-such-attribute"); ok {
			t.Fatalf("%s: node %d has an attribute nobody set", what, i)
		}
		if a.SubtreeHash(n) != b.SubtreeHash(n) {
			t.Fatalf("%s: node %d: subtree hash %#x != %#x", what, i, a.SubtreeHash(n), b.SubtreeHash(n))
		}
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("%s: fingerprint %#x != %#x", what, a.Fingerprint(), b.Fingerprint())
	}
	an, ae := a.EncodeBinary()
	if !dom.Equal(dom.DecodeBinary(an, ae), b) {
		t.Fatalf("%s: binary encoding does not round-trip", what)
	}
}

// TestMixedConstruction builds one document twice — parsed, so backed
// by source spans, and through the string API — applies the same edits
// to both, and requires every accessor, hash and the fingerprint to
// agree after each step; clones must agree too and stay independent.
// Warm runs concurrently on the shared trees, as crawl workers do.
func TestMixedConstruction(t *testing.T) {
	parsed := htmlparse.Parse(mixedSource)
	built := rebuild(parsed)
	sameTree(t, "parsed vs rebuilt", parsed, built)
	if v, _ := parsed.Attr(2, "data-x"); parsed.Label(2) != "div" || v != "a & b" {
		t.Fatalf("node 2 is %s data-x=%q: the fixture no longer covers decoded, lower-cased names", parsed.Label(2), v)
	}

	find := func(tr *dom.Tree, k dom.Kind, label string) dom.NodeID {
		for i := 0; i < tr.Size(); i++ {
			if n := dom.NodeID(i); tr.Kind(n) == k && tr.Label(n) == label {
				return n
			}
		}
		t.Fatalf("no %s node", label)
		return dom.Nil
	}
	div, text := find(parsed, dom.Element, "div"), find(parsed, dom.Text, dom.TextLabel)
	comment, li := find(parsed, dom.Comment, dom.CommentLabel), find(parsed, dom.Element, "li")
	edits := []struct {
		name string
		do   func(tr *dom.Tree)
	}{
		{"SetText on a source span", func(tr *dom.Tree) { tr.SetText(text, "rewritten") }},
		{"SetText on a comment, to empty", func(tr *dom.Tree) { tr.SetText(comment, "") }},
		{"SetAttr replaces a source value", func(tr *dom.Tree) { tr.SetAttr(div, "id", "Bottom") }},
		{"SetAttr grows a run in mid-table", func(tr *dom.Tree) { tr.SetAttr(div, "new", "v"); tr.SetAttr(div, "newer", "") }},
		{"SetAttr on an element without attributes", func(tr *dom.Tree) { tr.SetAttr(li, "k", "v"); tr.SetAttr(li, "k", "w") }},
		{"SetAttrs replaces a list, duplicates folded", func(tr *dom.Tree) {
			tr.SetAttrs(div, []dom.Attr{{Name: "x", Value: "1"}, {Name: "y", Value: "2"}, {Name: "x", Value: "3"}})
		}},
		{"SetAttrs to none", func(tr *dom.Tree) { tr.SetAttrs(tr.Root(), nil) }},
		{"AppendText and AppendChild", func(tr *dom.Tree) {
			tr.AppendText(li, "appended &amp; not decoded")
			tr.SetAttr(tr.AppendChild(li, "NewTag"), "class", "main")
			tr.AppendComment(tr.Root(), "end")
		}},
	}
	for _, e := range edits {
		before := parsed.Fingerprint()
		clone := parsed.Clone()
		e.do(parsed)
		e.do(built)
		var wg sync.WaitGroup
		for _, tr := range []*dom.Tree{parsed, built, parsed, built} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tr.Warm()
			}()
		}
		wg.Wait()
		if parsed.Fingerprint() == before {
			t.Errorf("%s: fingerprint did not change", e.name)
		}
		if clone.Fingerprint() != before {
			t.Errorf("%s: the edit reached a clone taken before it", e.name)
		}
		sameTree(t, e.name, parsed, built)
		sameTree(t, e.name+", clone", parsed.Clone(), built)
	}
	if got := parsed.ElementText(li); got != "xappended &amp; not decoded" {
		t.Errorf("ElementText(li) = %q", got)
	}

	// Random edits on top, mirrored by the seed.
	dom.Mutate(parsed, rand.New(rand.NewSource(3)), 40)
	dom.Mutate(built, rand.New(rand.NewSource(3)), 40)
	sameTree(t, "after Mutate", parsed, built)

	for name, f := range map[string]func(){
		"SetText on an element":  func() { parsed.SetText(div, "x") },
		"SetAttr on a text node": func() { parsed.SetAttr(text, "k", "v") },
		"SetAttrs on a comment":  func() { parsed.SetAttrs(comment, []dom.Attr{{Name: "k"}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
