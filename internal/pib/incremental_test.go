package pib

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dom"
	"repro/internal/xmlenc"
)

// buildBaseN is buildBase parameterized: n entries, one of which (idx
// tagged) carries a version-dependent name, so two calls with different
// tags produce bases identical everywhere but that entry.
func buildBaseN(t *testing.T, n int, tag string) *Base { return buildBaseFrom(t, nil, n, tag) }

// buildBaseFrom is buildBaseN maintained from prev (when not nil), every
// instance paired with its counterpart there (pairAll).
func buildBaseFrom(t *testing.T, prev *Base, n int, tag string) *Base {
	t.Helper()
	term := "html(body(ul("
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("Item%d", i)
		if i == n/2 {
			name += tag
		}
		if i > 0 {
			term += ","
		}
		term += fmt.Sprintf(`li(span(%q),em("$%d"))`, name, i)
	}
	term += ")))"
	doc := dom.MustParseTerm(term)
	doc.Reindex()
	b := NewBase()
	if prev != nil {
		b = NewBaseFrom(prev, 0)
	}
	root, _ := b.Add(&Instance{Pattern: "document", Kind: DocumentInstance, Doc: doc, URL: "u", Nodes: []dom.NodeID{doc.Root()}})
	list, _ := b.Add(&Instance{Pattern: "list", Kind: NodeInstance, Doc: doc, URL: "u", Nodes: []dom.NodeID{doc.FirstChild(doc.FirstChild(doc.Root()))}, Parent: root})
	doc.Walk(func(nd dom.NodeID) {
		if doc.Label(nd) != "li" {
			return
		}
		entry, _ := b.Add(&Instance{Pattern: "entry", Kind: NodeInstance, Doc: doc, URL: "u", Nodes: []dom.NodeID{nd}, Parent: list})
		doc.WalkSubtree(nd, func(c dom.NodeID) {
			switch doc.Label(c) {
			case "span":
				b.Add(&Instance{Pattern: "name", Kind: NodeInstance, Doc: doc, URL: "u", Nodes: []dom.NodeID{c}, Parent: entry})
			case "em":
				b.Add(&Instance{Pattern: "price", Kind: StringInstance, Doc: doc, URL: "u", Text: doc.ElementText(c), Parent: entry})
			}
		})
	})
	return pairAll(b)
}

// pairAll asks every instance of b for its counterpart, as a maintained
// evaluation asks its parents, and returns b.
func pairAll(b *Base) *Base {
	for in := range b.each {
		b.Counterpart(in)
	}
	return b
}

// ContentHash must be stable for content-identical instances across
// re-parsed documents (fresh NodeIDs, fresh parent IDs) and differ when
// content differs.
func TestContentHashCrossTick(t *testing.T) {
	b1 := buildBaseN(t, 6, "A")
	b2 := buildBaseN(t, 6, "A")
	b3 := buildBaseN(t, 6, "B")
	h := func(b *Base, pat string, i int) uint64 { return b.Instances(pat)[i].ContentHash() }
	for i := 0; i < 6; i++ {
		if h(b1, "entry", i) != h(b2, "entry", i) {
			t.Errorf("entry %d: identical content hashes differently across parses", i)
		}
	}
	if h(b1, "entry", 3) == h(b3, "entry", 3) {
		t.Error("changed entry content hashes identically")
	}
	if h(b1, "entry", 0) != h(b3, "entry", 0) {
		t.Error("untouched entry's hash shifted when a sibling changed")
	}
}

func TestDiff(t *testing.T) {
	prev := buildBaseN(t, 6, "A")
	cur := buildBaseN(t, 6, "B")
	d := Diff(prev, cur)
	// The tagged li changes: its entry, its name instance, and the
	// enclosing list + document (whose subtree hashes cover it) differ.
	// The other 5 entries, their names, and all 6 price strings match.
	if len(d.Added) != len(d.Removed) {
		t.Errorf("added %d != removed %d on an equal-size change", len(d.Added), len(d.Removed))
	}
	if len(d.Added) == 0 || len(d.Unchanged) == 0 {
		t.Fatalf("degenerate delta: added %d unchanged %d", len(d.Added), len(d.Unchanged))
	}
	wantUnchanged := cur.Count() - len(d.Added)
	if len(d.Unchanged) != wantUnchanged {
		t.Errorf("unchanged = %d, want %d", len(d.Unchanged), wantUnchanged)
	}
	// Identity diff: everything unchanged.
	same := Diff(prev, buildBaseN(t, 6, "A"))
	if len(same.Added) != 0 || len(same.Removed) != 0 {
		t.Errorf("identical bases diff to added %d removed %d", len(same.Added), len(same.Removed))
	}
}

// TransformIncremental must emit byte-identical XML to Transform, tick
// after tick, while actually reusing subtrees.
func TestTransformIncrementalByteIdentical(t *testing.T) {
	designs := []*Design{
		{Auxiliary: map[string]bool{"document": true}},
		{Auxiliary: map[string]bool{"document": true, "list": true}, RootName: "out"},
		{Auxiliary: map[string]bool{"document": true}, Rename: map[string]string{"name": "n"}, SuppressText: map[string]bool{"price": true}},
		{EmitURL: true},
		{Auxiliary: map[string]bool{"document": true, "list": true}, AlwaysText: map[string]bool{"entry": true}},
	}
	for di, d := range designs {
		oc := NewOutputCache()
		for tick := 0; tick < 4; tick++ {
			b := buildBaseFrom(t, oc.Base(), 8, fmt.Sprintf("v%d", tick/2)) // change every other tick
			want := xmlenc.MarshalIndent(d.Transform(b))
			got := xmlenc.MarshalIndent(d.TransformIncremental(b, oc))
			if got != want {
				t.Fatalf("design %d tick %d: incremental output diverges:\n%s\nvs\n%s", di, tick, got, want)
			}
		}
		st := oc.Stats()
		if st.ReusedNodes == 0 {
			t.Errorf("design %d: no nodes reused across 4 ticks", di)
		}
		if st.InstancesUnchanged == 0 {
			t.Errorf("design %d: no unchanged instances counted", di)
		}
	}
}

// Aliasing: a document already rendered must stay byte-stable after
// later ticks reuse (and re-place) its subtrees.
func TestTransformIncrementalAliasing(t *testing.T) {
	d := &Design{Auxiliary: map[string]bool{"document": true}}
	oc := NewOutputCache()
	doc1 := d.TransformIncremental(buildBaseN(t, 8, "v1"), oc)
	snap := xmlenc.MarshalIndent(doc1)
	d.TransformIncremental(buildBaseN(t, 8, "v2"), oc)
	d.TransformIncremental(buildBaseN(t, 8, "v3"), oc)
	if got := xmlenc.MarshalIndent(doc1); got != snap {
		t.Fatal("published tick-1 document mutated by later incremental transforms")
	}
	// Emitted instance subtrees are frozen; the roots are fresh.
	if doc1.Frozen() {
		t.Error("document root should be fresh (unfrozen) each tick")
	}
	for _, c := range doc1.Children {
		if !c.Frozen() {
			t.Errorf("emitted subtree <%s> not frozen", c.Name)
		}
	}
}

// Duplicate identical siblings must each get their own tree position:
// the cache pops per use, so the output stays a tree.
func TestTransformIncrementalDuplicateSiblings(t *testing.T) {
	build := func() *Base {
		doc := dom.MustParseTerm(`html(body(ul(li(span("Same")),li(span("Same")),li(span("Same")))))`)
		doc.Reindex()
		b := NewBase()
		root, _ := b.Add(&Instance{Pattern: "document", Kind: DocumentInstance, Doc: doc, URL: "u", Nodes: []dom.NodeID{doc.Root()}})
		doc.Walk(func(nd dom.NodeID) {
			if doc.Label(nd) == "li" {
				b.Add(&Instance{Pattern: "entry", Kind: NodeInstance, Doc: doc, URL: "u", Nodes: []dom.NodeID{nd}, Parent: root})
			}
		})
		return b
	}
	d := &Design{Auxiliary: map[string]bool{"document": true}}
	oc := NewOutputCache()
	d.TransformIncremental(build(), oc)
	out := d.TransformIncremental(build(), oc)
	if len(out.Children) != 3 {
		t.Fatalf("children = %d, want 3", len(out.Children))
	}
	seen := map[*xmlenc.Node]bool{}
	for _, c := range out.Children {
		if seen[c] {
			t.Fatal("same *Node spliced into two sibling positions")
		}
		seen[c] = true
	}
	if got, want := xmlenc.MarshalIndent(out), xmlenc.MarshalIndent(d.Transform(build())); got != want {
		t.Errorf("duplicate-sibling output diverges:\n%s\nvs\n%s", got, want)
	}
}

// Shrinking and growing the base across ticks must stay byte-identical
// (removed subtrees are dropped, new ones built).
func TestTransformIncrementalGrowShrink(t *testing.T) {
	d := &Design{Auxiliary: map[string]bool{"document": true}}
	oc := NewOutputCache()
	for _, n := range []int{8, 3, 12, 1, 12} {
		b := buildBaseN(t, n, "x")
		want := xmlenc.MarshalIndent(d.Transform(b))
		if got := xmlenc.MarshalIndent(d.TransformIncremental(b, oc)); got != want {
			t.Fatalf("size %d: incremental output diverges", n)
		}
	}
}

// randomBase builds a base over a fresh list document of n items whose
// names are drawn from a small pool, so identical instances repeat
// within a base and recur across bases; n == 0 yields an empty base
// (no document at all). It is maintained from prev when that is not
// nil, every instance paired (pairAll).
func randomBase(rng *rand.Rand, prev *Base, n int) *Base {
	b := NewBase()
	if prev != nil {
		b = NewBaseFrom(prev, 0)
	}
	if n == 0 {
		return b
	}
	term := "html(body(ul("
	for i := 0; i < n; i++ {
		if i > 0 {
			term += ","
		}
		term += fmt.Sprintf(`li(span("Item%d"),em("$%d"))`, rng.Intn(5), rng.Intn(3))
	}
	doc := dom.MustParseTerm(term + ")))")
	doc.Reindex()
	root, _ := b.Add(&Instance{Pattern: "document", Kind: DocumentInstance, Doc: doc, URL: "u", Nodes: []dom.NodeID{doc.Root()}})
	doc.Walk(func(nd dom.NodeID) {
		if doc.Label(nd) != "li" {
			return
		}
		entry, _ := b.AddCopy(&Instance{Pattern: "entry", Kind: NodeInstance, Doc: doc, URL: "u", Nodes: []dom.NodeID{nd}, Parent: root})
		doc.WalkSubtree(nd, func(c dom.NodeID) {
			if doc.Label(c) == "em" {
				b.Add(&Instance{Pattern: "price", Kind: StringInstance, Doc: doc, URL: "u", Text: doc.ElementText(c), Parent: entry})
			}
		})
	})
	return pairAll(b)
}

// TestDeltaCountsMatchDiff: TransformIncremental counts the per-tick
// delta from the pairs of a base maintained from its previous one
// instead of calling Diff; once every instance has been asked for its
// counterpart, the counters must advance by exactly the lengths of
// Diff's three lists, over random sequences with duplicate instances,
// growing and shrinking bases, and empty ones.
func TestDeltaCountsMatchDiff(t *testing.T) {
	d := &Design{Auxiliary: map[string]bool{"document": true}}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		oc := NewOutputCache()
		var prev *Base
		var want OutputStats
		for tick := 0; tick < 12; tick++ {
			n := rng.Intn(14)
			if rng.Intn(4) == 0 {
				n = 0
			}
			cur := randomBase(rng, prev, n)
			if prev != nil {
				delta := Diff(prev, cur)
				if len(delta.Added)+len(delta.Unchanged) != cur.Count() || len(delta.Removed)+len(delta.Unchanged) != prev.Count() {
					t.Fatalf("seed %d tick %d: Diff does not partition the bases", seed, tick)
				}
				want.InstancesAdded += uint64(len(delta.Added))
				want.InstancesRemoved += uint64(len(delta.Removed))
				want.InstancesUnchanged += uint64(len(delta.Unchanged))
			}
			if got, plain := xmlenc.MarshalIndent(d.TransformIncremental(cur, oc)), xmlenc.MarshalIndent(d.Transform(cur)); got != plain {
				t.Fatalf("seed %d tick %d: incremental output diverges:\n%s\nvs\n%s", seed, tick, got, plain)
			}
			got := oc.Stats()
			if got.InstancesAdded != want.InstancesAdded || got.InstancesRemoved != want.InstancesRemoved || got.InstancesUnchanged != want.InstancesUnchanged {
				t.Fatalf("seed %d tick %d (%d → %d instances): counters added/removed/unchanged = %d/%d/%d, Diff says %d/%d/%d",
					seed, tick, prev.Count(), cur.Count(), got.InstancesAdded, got.InstancesRemoved, got.InstancesUnchanged,
					want.InstancesAdded, want.InstancesRemoved, want.InstancesUnchanged)
			}
			prev = cur
		}
		if want.InstancesUnchanged == 0 || want.InstancesAdded == 0 || want.InstancesRemoved == 0 {
			t.Fatalf("seed %d: degenerate sequence %+v", seed, want)
		}
	}
}

// Seal puts every Children list in document order in place: a list
// already in order (evaluation commits one rule's children so) keeps
// its backing array and order, an out-of-order one is sorted stably,
// string instances holding their parent's position. Add after Seal
// appends in insertion order again and the next Seal restores the order.
func TestOrderedChildren(t *testing.T) {
	doc := dom.MustParseTerm(`html(body(ul(li("a"),li("b"),li("c"))))`)
	doc.Reindex()
	var lis []dom.NodeID
	doc.Walk(func(nd dom.NodeID) {
		if doc.Label(nd) == "li" {
			lis = append(lis, nd)
		}
	})
	var b *Base
	add := func(root *Instance, i int) *Instance {
		in := &Instance{Pattern: "entry", Kind: NodeInstance, Doc: doc, URL: "u", Parent: root}
		if i < 0 {
			in.Pattern, in.Kind, in.Text = "s", StringInstance, fmt.Sprint(i)
		} else {
			in.Nodes = []dom.NodeID{lis[i]}
		}
		in, _ = b.Add(in)
		return in
	}
	build := func(order ...int) (*Instance, []*Instance) {
		b = NewBase()
		root, _ := b.Add(&Instance{Pattern: "document", Kind: DocumentInstance, Doc: doc, URL: "u", Nodes: []dom.NodeID{doc.Root()}})
		for _, i := range order {
			add(root, i)
		}
		return root, slices.Clone(root.Children)
	}
	root, kids := build(-1, 0, 1, 2) // the string sits at the root's own position, first
	b.Seal()
	if !slices.Equal(root.Children, kids) {
		t.Error("ordered children were reordered")
	}
	root, kids = build(2, 0, -1, -2, 1)
	b.Seal()
	if want := []*Instance{kids[2], kids[3], kids[1], kids[4], kids[0]}; !slices.Equal(root.Children, want) {
		t.Errorf("sorted order wrong: %v", root.Children)
	}
	root, kids = build(2, -1)
	b.Seal()
	first, str := add(root, 0), add(root, -2)
	if dup := add(root, 2); dup != kids[0] || b.Count() != 5 {
		t.Errorf("Add after Seal: duplicate admitted (count %d)", b.Count())
	}
	b.Seal()
	if want := []*Instance{kids[1], str, first, kids[0]}; !slices.Equal(root.Children, want) {
		t.Errorf("order after Add and a second Seal wrong: %v", root.Children)
	}
}
