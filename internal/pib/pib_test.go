package pib

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/xmlenc"
)

// buildBase constructs a small instance base by hand: a document with a
// list of two entries, each holding a name and (for the first) a price
// string.
func buildBase(t *testing.T) (*Base, *dom.Tree) {
	t.Helper()
	doc := dom.MustParseTerm(`html(body(ul(li(span("Alpha"),em("$1")),li(span("Beta")))))`)
	doc.Reindex()
	b := NewBase()
	root, _ := b.Add(&Instance{Pattern: "document", Kind: DocumentInstance, Doc: doc, URL: "u", Nodes: []dom.NodeID{doc.Root()}})
	var lis []dom.NodeID
	doc.Walk(func(n dom.NodeID) {
		if doc.Label(n) == "li" {
			lis = append(lis, n)
		}
	})
	list, _ := b.Add(&Instance{Pattern: "list", Kind: NodeInstance, Doc: doc, URL: "u", Nodes: []dom.NodeID{doc.FirstChild(doc.FirstChild(doc.Root()))}, Parent: root})
	for _, li := range lis {
		entry, _ := b.Add(&Instance{Pattern: "entry", Kind: NodeInstance, Doc: doc, URL: "u", Nodes: []dom.NodeID{li}, Parent: list})
		doc.WalkSubtree(li, func(n dom.NodeID) {
			switch doc.Label(n) {
			case "span":
				b.Add(&Instance{Pattern: "name", Kind: NodeInstance, Doc: doc, URL: "u", Nodes: []dom.NodeID{n}, Parent: entry})
			case "em":
				b.Add(&Instance{Pattern: "price", Kind: StringInstance, Doc: doc, URL: "u", Text: doc.ElementText(n), Parent: entry})
			}
		})
	}
	return b, doc
}

func TestAddDedup(t *testing.T) {
	b, doc := buildBase(t)
	n := b.Count()
	// Re-adding an identical instance must not grow the base.
	root := b.Instances("document")[0]
	_, added := b.Add(&Instance{Pattern: "document", Kind: DocumentInstance, Doc: doc, URL: "u", Nodes: root.Nodes})
	if added || b.Count() != n {
		t.Fatalf("duplicate accepted (count %d -> %d)", n, b.Count())
	}
}

func TestPatternsAndInstances(t *testing.T) {
	b, _ := buildBase(t)
	pats := b.Patterns()
	want := []string{"document", "entry", "list", "name", "price"}
	if strings.Join(pats, ",") != strings.Join(want, ",") {
		t.Errorf("patterns = %v", pats)
	}
	if len(b.Instances("entry")) != 2 || len(b.Instances("name")) != 2 || len(b.Instances("price")) != 1 {
		t.Error("instance counts wrong")
	}
}

func TestTransformBasic(t *testing.T) {
	b, _ := buildBase(t)
	d := &Design{Auxiliary: map[string]bool{"document": true}}
	x := d.Transform(b)
	s := xmlenc.MarshalIndent(x)
	if !strings.Contains(s, "<name>Alpha</name>") || !strings.Contains(s, "<price>$1</price>") {
		t.Errorf("xml:\n%s", s)
	}
	if strings.Count(s, "<entry>") != 2 {
		t.Errorf("entries:\n%s", s)
	}
}

func TestAuxiliaryTreeMinor(t *testing.T) {
	// Marking both document and list auxiliary must promote entries to
	// the top — the tree-minor construction of Section 2.1.
	b, _ := buildBase(t)
	d := &Design{Auxiliary: map[string]bool{"document": true, "list": true}, RootName: "out"}
	x := d.Transform(b)
	for _, c := range x.Children {
		if c.Name != "entry" {
			t.Errorf("unexpected top-level element %s", c.Name)
		}
	}
	if len(x.Children) != 2 {
		t.Errorf("children = %d", len(x.Children))
	}
}

func TestRenameAndSuppress(t *testing.T) {
	b, _ := buildBase(t)
	d := &Design{
		Auxiliary:    map[string]bool{"document": true},
		Rename:       map[string]string{"name": "n"},
		SuppressText: map[string]bool{"price": true},
	}
	s := xmlenc.Marshal(d.Transform(b))
	if !strings.Contains(s, "<n>Alpha</n>") {
		t.Errorf("rename failed: %s", s)
	}
	if strings.Contains(s, "$1") {
		t.Errorf("suppressed text leaked: %s", s)
	}
}

func TestDocumentOrderOfSiblings(t *testing.T) {
	b, _ := buildBase(t)
	d := &Design{Auxiliary: map[string]bool{"document": true, "list": true, "price": true}}
	s := xmlenc.Marshal(d.Transform(b))
	// Alpha's entry precedes Beta's in document order.
	if strings.Index(s, "Alpha") > strings.Index(s, "Beta") {
		t.Errorf("document order violated: %s", s)
	}
}

func TestEmitURL(t *testing.T) {
	b, _ := buildBase(t)
	d := &Design{EmitURL: true}
	s := xmlenc.Marshal(d.Transform(b))
	if !strings.Contains(s, `url="u"`) {
		t.Errorf("url attribute missing: %s", s)
	}
}

func TestTextContentOfSequence(t *testing.T) {
	doc := dom.MustParseTerm(`r(a("x"),b("y"),c("z"))`)
	doc.Reindex()
	var kids []dom.NodeID
	for c := doc.FirstChild(doc.Root()); c != dom.Nil; c = doc.NextSibling(c) {
		kids = append(kids, c)
	}
	in := &Instance{Pattern: "seq", Kind: SequenceInstance, Doc: doc, Nodes: kids[:2]}
	if got := in.TextContent(); got != "xy" {
		t.Errorf("TextContent = %q", got)
	}
}

func TestAlwaysText(t *testing.T) {
	b, _ := buildBase(t)
	// entry instances have child instances; with AlwaysText they also
	// carry their own text.
	d := &Design{Auxiliary: map[string]bool{"document": true, "list": true},
		AlwaysText: map[string]bool{"entry": true}}
	s := xmlenc.Marshal(d.Transform(b))
	if !strings.Contains(s, "Alpha$1") && !strings.Contains(s, "Alpha") {
		t.Errorf("entry text missing: %s", s)
	}
	// The text sits on the entry element itself, before its children.
	if !strings.Contains(s, `<entry>Alpha`) {
		t.Errorf("AlwaysText not applied: %s", s)
	}
}

// textKey is the dedup key Add built before instKey: a string of
// pattern, URL, parent id, every node and (for string instances) the
// text. Kept here as the reference identity instKey must reproduce.
func textKey(in *Instance) string {
	var b []byte
	b = append(b, in.Pattern...)
	b = append(b, '|')
	b = append(b, in.URL...)
	b = append(b, '|')
	if in.Parent != nil {
		b = append(b, 'p')
		b = strconv.AppendInt(b, int64(in.Parent.ID), 10)
		b = append(b, '|')
	}
	for _, nd := range in.Nodes {
		b = strconv.AppendInt(b, int64(nd), 10)
		b = append(b, ',')
	}
	if in.Kind == StringInstance {
		b = append(b, 't', ':')
		b = append(b, in.Text...)
	}
	return string(b)
}

// TestKeyPreservesTextIdentity is the property instKey was introduced
// under: over random node, sequence (up to five nodes), string and
// document instances drawn from small alphabets (so that collisions are
// frequent), two instances have equal instKeys exactly when they had
// equal text keys. Patterns and URLs are drawn without '|', the text
// key's field separator, which it did not escape.
func TestKeyPreservesTextIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	parents := []*Instance{nil, {ID: 0}, {ID: 1}, {ID: 12}}
	pick := func(ss ...string) string { return ss[rng.Intn(len(ss))] }
	gen := func() *Instance {
		in := &Instance{
			Pattern: pick("row", "name", "p", "p1"),
			URL:     pick("", "u", "u/2", "p1"),
			Parent:  parents[rng.Intn(len(parents))],
			Kind:    Kind(rng.Intn(4)),
			Text:    pick("", "1", "1,2,", "t:"),
		}
		n := 1
		switch in.Kind {
		case SequenceInstance:
			n = 1 + rng.Intn(5)
		case StringInstance:
			n = rng.Intn(2)
		}
		for i := 0; i < n; i++ {
			in.Nodes = append(in.Nodes, dom.NodeID(rng.Intn(4)))
		}
		return in
	}
	var ins []*Instance
	for i := 0; i < 1500; i++ {
		ins = append(ins, gen())
	}
	equal := 0
	for i, a := range ins {
		for _, b := range ins[i+1:] {
			oldEq, newEq := textKey(a) == textKey(b), a.key() == b.key()
			if oldEq != newEq {
				t.Fatalf("identity changed: text keys equal = %v, instKeys equal = %v\n%q\n%q", oldEq, newEq, textKey(a), textKey(b))
			}
			if oldEq {
				equal++
			}
		}
	}
	if equal < 100 {
		t.Fatalf("only %d equal pairs: the alphabets are too large to test equality", equal)
	}
}

// TestAddCopy pins AddCopy against Add: same ids, dedup decisions,
// parent links and Dump, with the canonical instances living in the
// base rather than in the caller's scratch value.
func TestAddCopy(t *testing.T) {
	doc := dom.MustParseTerm(`html(body(ul(li("a"),li("b"),li("c"))))`)
	doc.Reindex()
	build := func(add func(b *Base, in Instance) (*Instance, bool)) *Base {
		b := NewBaseSize(2) // smaller than the base: the slab must regrow
		root, _ := add(b, Instance{Pattern: "document", Kind: DocumentInstance, Doc: doc, URL: "u", Nodes: []dom.NodeID{doc.Root()}})
		for round := 0; round < 2; round++ {
			doc.Walk(func(n dom.NodeID) {
				if doc.Label(n) == "li" {
					_, added := add(b, Instance{Pattern: "item", Doc: doc, URL: "u", Nodes: []dom.NodeID{n}, Parent: root})
					if added != (round == 0) {
						t.Errorf("round %d: added = %v", round, added)
					}
				}
			})
		}
		return b
	}
	byPointer := build(func(b *Base, in Instance) (*Instance, bool) { return b.Add(&in) })
	var scratch Instance
	byCopy := build(func(b *Base, in Instance) (*Instance, bool) {
		scratch = in
		got, added := b.AddCopy(&scratch)
		if got == &scratch {
			t.Error("AddCopy returned the caller's scratch instance")
		}
		return got, added
	})
	if got, want := byCopy.Dump(), byPointer.Dump(); got != want || byCopy.Count() != 4 {
		t.Errorf("AddCopy base differs from Add base:\n%s\nvs\n%s", got, want)
	}
	if kids := byCopy.Roots[0].Children; len(kids) != 3 || kids[2].Parent != byCopy.Roots[0] {
		t.Errorf("parent links broken: %d children", len(kids))
	}
}
