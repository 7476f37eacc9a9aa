package dom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// figure1Tree builds the six-node unranked tree of Figure 1(a):
//
//	   n1
//	 / | \
//	n2 n3 n6
//	  / \
//	 n4  n5
func figure1Tree(t *testing.T) (*Tree, map[string]NodeID) {
	t.Helper()
	tr := New(6)
	n1 := tr.AddRoot("n1")
	n2 := tr.AppendChild(n1, "n2")
	n3 := tr.AppendChild(n1, "n3")
	n4 := tr.AppendChild(n3, "n4")
	n5 := tr.AppendChild(n3, "n5")
	n6 := tr.AppendChild(n1, "n6")
	return tr, map[string]NodeID{"n1": n1, "n2": n2, "n3": n3, "n4": n4, "n5": n5, "n6": n6}
}

func TestFigure1BinaryRepresentation(t *testing.T) {
	tr, m := figure1Tree(t)
	// Figure 1(b): firstchild edges n1→n2, n3→n4; nextsibling edges
	// n2→n3, n3→n6, n4→n5.
	wantFC := map[NodeID]NodeID{m["n1"]: m["n2"], m["n3"]: m["n4"]}
	wantNS := map[NodeID]NodeID{m["n2"]: m["n3"], m["n3"]: m["n6"], m["n4"]: m["n5"]}
	gotFC := map[NodeID]NodeID{}
	gotNS := map[NodeID]NodeID{}
	for _, e := range tr.BinaryEncoding() {
		if e.FirstChild {
			gotFC[e.From] = e.To
		} else {
			gotNS[e.From] = e.To
		}
	}
	if len(gotFC) != len(wantFC) || len(gotNS) != len(wantNS) {
		t.Fatalf("edge counts: got %d fc / %d ns, want %d / %d", len(gotFC), len(gotNS), len(wantFC), len(wantNS))
	}
	for k, v := range wantFC {
		if gotFC[k] != v {
			t.Errorf("firstchild(%d) = %d, want %d", k, gotFC[k], v)
		}
	}
	for k, v := range wantNS {
		if gotNS[k] != v {
			t.Errorf("nextsibling(%d) = %d, want %d", k, gotNS[k], v)
		}
	}
}

func TestFigure1UnaryRelations(t *testing.T) {
	tr, m := figure1Tree(t)
	if !tr.IsRoot(m["n1"]) || tr.IsRoot(m["n2"]) {
		t.Error("root relation wrong")
	}
	for _, leaf := range []string{"n2", "n4", "n5", "n6"} {
		if !tr.IsLeaf(m[leaf]) {
			t.Errorf("%s should be a leaf", leaf)
		}
	}
	if tr.IsLeaf(m["n1"]) || tr.IsLeaf(m["n3"]) {
		t.Error("interior nodes reported as leaves")
	}
	// lastsibling: n6 and n5 are rightmost children; the root is not a
	// last sibling (it has no parent) — exactly as the paper specifies.
	if !tr.IsLastSibling(m["n6"]) || !tr.IsLastSibling(m["n5"]) {
		t.Error("lastsibling missing")
	}
	if tr.IsLastSibling(m["n1"]) {
		t.Error("root must not be a last sibling")
	}
	if !tr.IsFirstSibling(m["n2"]) || tr.IsFirstSibling(m["n3"]) {
		t.Error("firstsibling relation wrong")
	}
}

func TestDocumentOrder(t *testing.T) {
	tr, m := figure1Tree(t)
	order := []string{"n1", "n2", "n3", "n4", "n5", "n6"}
	ids := tr.InDocumentOrder()
	if len(ids) != len(order) {
		t.Fatalf("got %d nodes", len(ids))
	}
	for i, name := range order {
		if ids[i] != m[name] {
			t.Errorf("doc order position %d: got %d want %s", i, ids[i], name)
		}
	}
	if !tr.DocBefore(m["n2"], m["n4"]) || tr.DocBefore(m["n5"], m["n3"]) {
		t.Error("DocBefore wrong")
	}
}

func TestAxes(t *testing.T) {
	tr, m := figure1Tree(t)
	if !tr.IsAncestor(m["n1"], m["n5"]) || tr.IsAncestor(m["n5"], m["n1"]) {
		t.Error("ancestor wrong")
	}
	if tr.IsAncestor(m["n2"], m["n4"]) {
		t.Error("siblings are not ancestors")
	}
	if !tr.IsChild(m["n3"], m["n4"]) || tr.IsChild(m["n3"], m["n6"]) {
		t.Error("child wrong")
	}
	// Following: n4 is followed by n5 and n6 but not by its ancestor n3.
	if !tr.Following(m["n4"], m["n5"]) || !tr.Following(m["n4"], m["n6"]) {
		t.Error("following missing")
	}
	if tr.Following(m["n4"], m["n3"]) || tr.Following(m["n4"], m["n4"]) {
		t.Error("following too large")
	}
	// Following must exclude descendants: n3's descendants n4, n5.
	if tr.Following(m["n3"], m["n4"]) {
		t.Error("descendant wrongly in following")
	}
	if !tr.FollowingSibling(m["n2"], m["n6"]) || tr.FollowingSibling(m["n4"], m["n6"]) {
		t.Error("followingsibling wrong")
	}
}

func TestChildIndexAndCount(t *testing.T) {
	tr, m := figure1Tree(t)
	if got := tr.ChildCount(m["n1"]); got != 3 {
		t.Errorf("ChildCount(root) = %d", got)
	}
	if got := tr.ChildIndex(m["n3"]); got != 2 {
		t.Errorf("ChildIndex(n3) = %d", got)
	}
	if got := tr.ChildIndex(m["n1"]); got != 0 {
		t.Errorf("ChildIndex(root) = %d", got)
	}
}

func TestParseTermRoundTrip(t *testing.T) {
	for _, s := range []string{
		"a",
		"a(b,c)",
		"html(body(table(tr(td,td),tr(td)),hr))",
		`p("hello world")`,
		`a(b("x"),c(d("y"),e))`,
	} {
		tr, err := ParseTerm(s)
		if err != nil {
			t.Fatalf("ParseTerm(%q): %v", s, err)
		}
		if got := tr.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseTermAttrs(t *testing.T) {
	tr, err := ParseTerm("a[href=x.html,class=nav](b)")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := tr.Attr(tr.Root(), "href"); !ok || v != "x.html" {
		t.Errorf("href = %q, %v", v, ok)
	}
	if v, ok := tr.Attr(tr.Root(), "class"); !ok || v != "nav" {
		t.Errorf("class = %q, %v", v, ok)
	}
}

func TestParseTermErrors(t *testing.T) {
	for _, s := range []string{"", "a(b", "a)b", `"text"`, "a(b,)x", "a[k=v"} {
		if _, err := ParseTerm(s); err == nil {
			t.Errorf("ParseTerm(%q) succeeded, want error", s)
		}
	}
}

func TestElementText(t *testing.T) {
	tr := MustParseTerm(`div(p("Hello, "),span(b("wor"),"ld"))`)
	if got := tr.ElementText(tr.Root()); got != "Hello, world" {
		t.Errorf("ElementText = %q", got)
	}
}

func TestPathLabels(t *testing.T) {
	tr := MustParseTerm("html(body(table(tr(td))))")
	body := tr.FirstChild(tr.Root())
	var td NodeID
	tr.Walk(func(n NodeID) {
		if tr.Label(n) == "td" {
			td = n
		}
	})
	labels, ok := tr.PathLabels(body, td)
	if !ok {
		t.Fatal("PathLabels failed")
	}
	want := []string{"table", "tr", "td"}
	if len(labels) != len(want) {
		t.Fatalf("got %v", labels)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("got %v want %v", labels, want)
		}
	}
	if _, ok := tr.PathLabels(td, body); ok {
		t.Error("PathLabels should fail upward")
	}
}

func TestBinaryEncodingRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64, size uint8) bool {
		n := int(size%60) + 1
		tr := RandomTree(rand.New(rand.NewSource(seed)), n, []string{"a", "b", "c"}, 4)
		tr.SetAttr(tr.Root(), "id", "root")
		nodes, edges := tr.EncodeBinary()
		back := DecodeBinary(nodes, edges)
		return Equal(tr, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestPrePostConsistencyProperty(t *testing.T) {
	// For every pair (x,y) exactly one of: x==y, ancestor(x,y),
	// ancestor(y,x), following(x,y), following(y,x).
	f := func(seed int64) bool {
		tr := RandomTree(rand.New(rand.NewSource(seed)), 40, []string{"a", "b"}, 3)
		for x := 0; x < tr.Size(); x++ {
			for y := 0; y < tr.Size(); y++ {
				nx, ny := NodeID(x), NodeID(y)
				cnt := 0
				if nx == ny {
					cnt++
				}
				if tr.IsAncestor(nx, ny) {
					cnt++
				}
				if tr.IsAncestor(ny, nx) {
					cnt++
				}
				if tr.Following(nx, ny) {
					cnt++
				}
				if tr.Following(ny, nx) {
					cnt++
				}
				if cnt != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCloneAndEqual(t *testing.T) {
	tr := MustParseTerm(`a[x=1](b("t"),c(d))`)
	cp := tr.Clone()
	if !Equal(tr, cp) {
		t.Fatal("clone not equal")
	}
	cp.SetAttr(cp.Root(), "x", "2")
	if Equal(tr, cp) {
		t.Fatal("attr change not detected")
	}
	cp2 := tr.Clone()
	cp2.AppendChild(cp2.Root(), "z")
	if Equal(tr, cp2) {
		t.Fatal("size change not detected")
	}
}

func TestShapes(t *testing.T) {
	c := Chain(100, "a")
	if c.Size() != 100 || c.Height() != 99 {
		t.Errorf("chain: size=%d height=%d", c.Size(), c.Height())
	}
	s := Star(100, "a")
	if s.Size() != 100 || s.Height() != 1 {
		t.Errorf("star: size=%d height=%d", s.Size(), s.Height())
	}
	b := FullBinary(4, "a")
	if b.Size() != 31 || b.Height() != 4 {
		t.Errorf("binary: size=%d height=%d", b.Size(), b.Height())
	}
}

func TestSortDocOrderDedup(t *testing.T) {
	tr, m := figure1Tree(t)
	in := []NodeID{m["n6"], m["n2"], m["n6"], m["n1"], m["n4"]}
	out := tr.SortDocOrder(in)
	want := []NodeID{m["n1"], m["n2"], m["n4"], m["n6"]}
	if len(out) != len(want) {
		t.Fatalf("got %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("got %v want %v", out, want)
		}
	}
}

func TestDeepChainNoStackOverflow(t *testing.T) {
	c := Chain(200000, "a")
	c.Reindex()
	if c.Pre(NodeID(c.Size()-1)) != c.Size()-1 {
		t.Error("pre numbering wrong on deep chain")
	}
	if got := c.ElementText(c.Root()); got != "" {
		t.Errorf("unexpected text %q", got)
	}
}

func BenchmarkE1_TreeEncoding(b *testing.B) {
	tr := RandomTree(rand.New(rand.NewSource(1)), 10000, []string{"a", "b", "c"}, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes, edges := tr.EncodeBinary()
		if len(nodes) == 0 || len(edges) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

func BenchmarkReindex(b *testing.B) {
	tr := RandomTree(rand.New(rand.NewSource(1)), 100000, []string{"a"}, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.indexed = false
		tr.Reindex()
	}
}

func TestSubtreeSize(t *testing.T) {
	tr := MustParseTerm("a(b(c,d),e)")
	// Sizes: a=5, b=3, c=1, d=1, e=1.
	want := map[string]int{"a": 5, "b": 3, "c": 1, "d": 1, "e": 1}
	tr.Walk(func(n NodeID) {
		if got := tr.SubtreeSize(n); got != want[tr.Label(n)] {
			t.Errorf("SubtreeSize(%s) = %d, want %d", tr.Label(n), got, want[tr.Label(n)])
		}
	})
}

func TestSubtreeSizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr := RandomTree(rand.New(rand.NewSource(seed)), 50, []string{"a"}, 4)
		for n := 0; n < tr.Size(); n++ {
			want := 1 + len(tr.Descendants(NodeID(n)))
			if tr.SubtreeSize(NodeID(n)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLabelInterning(t *testing.T) {
	tr := MustParseTerm("a(b,a(b),\"txt\")")
	if tr.NumLabels() != 3 { // a, b, #text
		t.Fatalf("NumLabels = %d, want 3", tr.NumLabels())
	}
	if tr.LabelID(0) != tr.LabelID(2) {
		t.Error("equal labels intern to different ids")
	}
	if tr.LabelIDFor("a") != tr.LabelID(0) {
		t.Error("LabelIDFor(a) disagrees with node symbol")
	}
	if tr.LabelIDFor("zz") != NoLabel {
		t.Error("unknown label should map to NoLabel")
	}
	if tr.LabelName(tr.LabelID(0)) != "a" || tr.Label(0) != "a" {
		t.Error("label round trip broken")
	}
	if !tr.HasLabel(0, "a") || tr.HasLabel(0, "b") || tr.HasLabel(0, "zz") {
		t.Error("HasLabel wrong")
	}
}

func TestLabelAndKindBits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := RandomTree(rng, 300, []string{"a", "b", "c"}, 6)
	for _, lbl := range []string{"a", "b", "c"} {
		id := tr.LabelIDFor(lbl)
		if id == NoLabel {
			continue
		}
		bits := tr.LabelBits(id)
		for i := 0; i < tr.Size(); i++ {
			got := bits[i>>6]&(1<<(uint(i)&63)) != 0
			if got != (tr.Label(NodeID(i)) == lbl) {
				t.Fatalf("LabelBits(%s) wrong at node %d", lbl, i)
			}
		}
	}
	eb := tr.KindBits(Element)
	for i := 0; i < tr.Size(); i++ {
		got := eb[i>>6]&(1<<(uint(i)&63)) != 0
		if got != (tr.Kind(NodeID(i)) == Element) {
			t.Fatalf("KindBits(Element) wrong at node %d", i)
		}
	}
	// Mutation invalidates the cache.
	tr.AppendChild(tr.Root(), "zz")
	id := tr.LabelIDFor("zz")
	if id == NoLabel {
		t.Fatal("new label not interned")
	}
	nb := tr.LabelBits(id)
	last := tr.Size() - 1
	if nb[last>>6]&(1<<(uint(last)&63)) == 0 {
		t.Fatal("label bits stale after mutation")
	}
}

func TestFingerprint(t *testing.T) {
	build := func() *Tree {
		tr := New(0)
		r := tr.AddRoot("a")
		c := tr.AppendChild(r, "b")
		tr.SetAttr(c, "k", "v")
		tr.AppendText(c, "hello")
		return tr
	}
	t1, t2 := build(), build()
	if t1.Fingerprint() != t2.Fingerprint() {
		t.Fatal("identical trees fingerprint differently")
	}
	if t1.Fingerprint() != t1.Clone().Fingerprint() {
		t.Fatal("clone fingerprints differently")
	}
	fp := t1.Fingerprint()
	if t1.Fingerprint() != fp {
		t.Fatal("fingerprint not stable")
	}
	t1.SetText(2, "world")
	if t1.Fingerprint() == fp {
		t.Fatal("SetText did not change the fingerprint")
	}
	t2.SetAttr(1, "k", "w")
	if t2.Fingerprint() == fp {
		t.Fatal("SetAttr did not change the fingerprint")
	}
	t3 := build()
	t3.AppendChild(t3.Root(), "c")
	if t3.Fingerprint() == fp {
		t.Fatal("AppendChild did not change the fingerprint")
	}

	// The fingerprint is folded from the subtree hashes, which see
	// content and shape: the same nodes arranged differently differ ...
	nested, flat := New(0), New(0)
	nested.AppendChild(nested.AppendChild(nested.AddRoot("a"), "b"), "c")
	r := flat.AddRoot("a")
	flat.AppendChild(r, "b")
	flat.AppendChild(r, "c")
	if nested.Fingerprint() == flat.Fingerprint() {
		t.Fatal("a(b(c)) and a(b,c) fingerprint alike")
	}
	// ... and so does the same tree under another id assignment, which
	// the subtree hashes do not see but caches of NodeIDs depend on.
	depth, breadth := New(0), New(0)
	r = depth.AddRoot("r")
	depth.AppendChild(depth.AppendChild(r, "a"), "g")
	depth.AppendChild(r, "b")
	r = breadth.AddRoot("r")
	a := breadth.AppendChild(r, "a")
	breadth.AppendChild(r, "b")
	breadth.AppendChild(a, "g")
	if !Equal(depth, breadth) || depth.SubtreeHash(0) != breadth.SubtreeHash(0) {
		t.Fatal("depth-first and breadth-first builds of r(a(g),b) are not the same tree")
	}
	if depth.Fingerprint() == breadth.Fingerprint() {
		t.Fatal("trees with different node ids fingerprint alike")
	}

	// Valid on an empty tree, and on an un-warmed one by either entry
	// point, before and after a full Warm.
	if New(0).Fingerprint() != New(8).Fingerprint() || New(0).Fingerprint() == fp {
		t.Fatal("empty-tree fingerprint is not a constant of its own")
	}
	cold := build()
	if got := cold.ContentKey(); got != fp {
		t.Fatalf("ContentKey on an un-warmed string-built tree = %#x, want its fingerprint %#x", got, fp)
	}
	cold.Warm()
	if cold.Fingerprint() != fp || cold.ContentKey() != fp {
		t.Fatal("Warm changed the fingerprint")
	}
}

// TestFingerprintIgnoresIndex: the Fingerprint is a function of the
// tree alone. Whether a tree is in document order, which decides if the
// parent ids are folded in, is read from its links when it has no
// index and from the index when it has one, and both give one value:
// for random trees (mostly out of document order), preorder-built
// copies of them, and copies grown out of order after their build.
func TestFingerprintIgnoresIndex(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		trees := func() []*Tree {
			rng := rand.New(rand.NewSource(seed))
			random := RandomTree(rng, 1+rng.Intn(300), []string{"a", "b", "c"}, 1+rng.Intn(6))
			ordered := New(random.Size())
			id := make([]NodeID, random.Size())
			random.Walk(func(n NodeID) {
				if p := random.Parent(n); p == Nil {
					id[n] = ordered.AddRoot(random.Label(n))
				} else {
					id[n] = ordered.AppendChild(id[p], random.Label(n))
				}
			})
			grown := ordered.Clone()
			Mutate(grown, rng, 4)
			return []*Tree{random, ordered, grown, Chain(1+int(seed), "a"), FullBinary(int(seed%5), "a")}
		}
		plain, indexed := trees(), trees()
		for i := range plain {
			indexed[i].Reindex()
			if plain[i].Fingerprint() != indexed[i].Fingerprint() {
				t.Fatalf("seed %d, tree %d (document order %v): the fingerprint depends on whether the tree was indexed first",
					seed, i, indexed[i].DocOrdered())
			}
		}
		if !indexed[1].DocOrdered() {
			t.Fatalf("seed %d: a tree built in preorder is not in document order", seed)
		}
	}
}

func TestDocOrdered(t *testing.T) {
	if !Chain(50, "a").DocOrdered() {
		t.Error("chain should be doc ordered")
	}
	if !FullBinary(4, "a").DocOrdered() {
		t.Error("depth-first built tree should be doc ordered")
	}
	// Interleaved construction: ids diverge from document order.
	tr2 := New(4)
	r := tr2.AddRoot("r")
	a := tr2.AppendChild(r, "a")
	tr2.AppendChild(r, "b")
	tr2.AppendChild(a, "g")
	if tr2.DocOrdered() {
		t.Error("interleaved tree must not be doc ordered")
	}
}
