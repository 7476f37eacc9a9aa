package xmlenc

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"weak"
)

// catalogDoc builds an indented-output-sized document: a root with n
// row subtrees, each carrying a couple of text children so its
// encoding clears minCacheBytes.
func catalogDoc(n int, stamp string) *Node {
	root := NewElement("catalog")
	for i := 0; i < n; i++ {
		row := root.AppendElement("row")
		row.AppendTextElement("title", fmt.Sprintf("Item %d %s", i, stamp))
		row.AppendTextElement("price", fmt.Sprintf("$%d.99", i))
	}
	return root
}

func TestEncoderMatchesMarshal(t *testing.T) {
	e := NewEncoder()
	doc := catalogDoc(12, "v1")
	for _, c := range doc.Children {
		c.Freeze()
	}
	for tick := 0; tick < 3; tick++ {
		got := string(e.MarshalIndentBytes(doc))
		want := MarshalIndent(doc)
		if got != want {
			t.Fatalf("tick %d: encoder diverges from MarshalIndent:\n%q\nvs\n%q", tick, got, want)
		}
	}
	if e.SplicedBytes() == 0 {
		t.Error("repeated encode of a frozen document spliced nothing")
	}
	if e.CachedSubtrees() == 0 {
		t.Error("no subtrees cached")
	}
}

// Successive versions sharing most frozen rows must encode
// byte-identically to a cold marshal, with the unchanged rows spliced.
func TestEncoderSplicesAcrossVersions(t *testing.T) {
	e := NewEncoder()
	prev := catalogDoc(20, "v1")
	for _, c := range prev.Children {
		c.Freeze()
	}
	e.MarshalIndentBytes(prev)

	next := NewElement("catalog")
	for i, row := range prev.Children {
		if i == 3 || i == 11 {
			fresh := NewElement("row")
			fresh.AppendTextElement("title", fmt.Sprintf("Item %d v2", i))
			fresh.AppendTextElement("price", "$0.99")
			next.Append(fresh.Freeze())
			continue
		}
		next.Append(row) // reused frozen subtree
	}
	before := e.SplicedBytes()
	got := string(e.MarshalIndentBytes(next))
	if want := MarshalIndent(next); got != want {
		t.Fatalf("spliced encode diverges:\n%q\nvs\n%q", got, want)
	}
	if e.SplicedBytes() == before {
		t.Error("no bytes spliced despite 18 reused rows")
	}
}

// Eviction: subtrees dropped from the document leave the cache after
// the next encode, so removed rows do not pin memory.
func TestEncoderEvictsRemovedSubtrees(t *testing.T) {
	e := NewEncoder()
	doc := catalogDoc(10, "v1")
	for _, c := range doc.Children {
		c.Freeze()
	}
	e.MarshalIndentBytes(doc)
	full := e.CachedSubtrees()
	small := NewElement("catalog")
	small.Append(doc.Children[0])
	e.MarshalIndentBytes(small)
	if e.CachedSubtrees() >= full {
		t.Errorf("cache not evicted: %d entries before, %d after shrink", full, e.CachedSubtrees())
	}
}

// A reused frozen child nested under a freshly rebuilt (frozen) parent
// must still splice, and the whole output stays byte-identical.
func TestEncoderNestedReuse(t *testing.T) {
	e := NewEncoder()
	inner := NewElement("row")
	inner.AppendTextElement("title", "stable title that is long enough to cache")
	inner.Freeze()
	v1 := NewElement("catalog")
	g1 := NewElement("group")
	g1.SetAttr("gen", "1")
	g1.Append(inner)
	v1.Append(g1.Freeze())
	e.MarshalIndentBytes(v1)

	v2 := NewElement("catalog")
	g2 := NewElement("group")
	g2.SetAttr("gen", "2")
	g2.Append(inner)
	v2.Append(g2.Freeze())
	before := e.SplicedBytes()
	if got, want := string(e.MarshalIndentBytes(v2)), MarshalIndent(v2); got != want {
		t.Fatalf("nested reuse diverges:\n%q\nvs\n%q", got, want)
	}
	if e.SplicedBytes() == before {
		t.Error("nested frozen child did not splice under a rebuilt parent")
	}
}

// Randomized churn: mutate a random subset of rows per tick and check
// the encoder against the plain marshaler every time.
func TestEncoderRandomChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := NewEncoder()
	rows := make([]*Node, 30)
	for i := range rows {
		r := NewElement("row")
		r.AppendTextElement("title", fmt.Sprintf("Item %d tick 0 padding padding", i))
		rows[i] = r.Freeze()
	}
	for tick := 1; tick <= 20; tick++ {
		for i := range rows {
			if rng.Intn(10) == 0 {
				r := NewElement("row")
				r.AppendTextElement("title", fmt.Sprintf("Item %d tick %d padding padding", i, tick))
				rows[i] = r.Freeze()
			}
		}
		doc := NewElement("catalog")
		for _, r := range rows {
			doc.Append(r)
		}
		if got, want := string(e.MarshalIndentBytes(doc)), MarshalIndent(doc); got != want {
			t.Fatalf("tick %d: encoder diverges from MarshalIndent", tick)
		}
	}
}

func TestFreezeAndMutable(t *testing.T) {
	n := NewElement("a")
	c := n.AppendElement("b")
	n.Freeze()
	if !n.Frozen() || !c.Frozen() {
		t.Fatal("Freeze not recursive")
	}
	if n.Mutable() == n {
		t.Error("Mutable returned the frozen node itself")
	}
	cp := n.Mutable()
	if cp.Frozen() {
		t.Error("Mutable copy is frozen")
	}
	cp.SetAttr("k", "v") // must not touch the frozen original
	if _, ok := n.Attr("k"); ok {
		t.Error("mutating the copy leaked into the frozen original")
	}
	if len(cp.Children) != 1 || cp.Children[0] != c {
		t.Error("Mutable copy lost its (shared, frozen) children")
	}
	m := NewElement("plain")
	if m.Mutable() != m {
		t.Error("Mutable of an unfrozen node should be the node itself")
	}
}

// The table addresses the previous output instead of copying subtrees:
// re-encoding a frozen document with k of its n rows replaced
// allocates the output buffer and the k new entries, nothing per
// spliced row, and the output stays byte-identical to the stateless
// encoder.
func TestSpliceEncoderHoldsNoCopies(t *testing.T) {
	const n, k, runs = 200, 5, 40
	// Each row's children encode below minCacheBytes, so a changed row
	// is one new entry.
	row := func(i, v int) *Node {
		r := NewElement("row").SetAttr("id", fmt.Sprint(i))
		r.AppendTextElement("v", fmt.Sprint(v)).AppendTextElement("w", "unchanged")
		return r.Freeze()
	}
	rows := make([]*Node, n)
	docs := make([]*Node, runs+2)
	for v := range docs {
		for j := 0; j < k || v == 0 && j < n; j++ {
			i := (v*k + j) % n
			rows[i] = row(i, v)
		}
		docs[v] = NewElement("catalog").Append(rows...)
	}
	e := NewEncoder()
	outs := make([][]byte, 0, len(docs))
	outs = append(outs, e.MarshalIndentBytes(docs[0]))
	allocs := testing.AllocsPerRun(runs, func() {
		outs = append(outs, e.MarshalIndentBytes(docs[len(outs)]))
	})
	if allocs > 1+k {
		t.Errorf("re-encoding with %d of %d rows changed: %.1f allocs, want at most %d (the output and the new entries)", k, n, allocs, 1+k)
	}
	for v, out := range outs {
		if !bytes.Equal(out, MarshalIndentBytes(docs[v])) {
			t.Fatalf("version %d: spliced encode diverges from MarshalIndentBytes", v)
		}
	}
	if e.CachedSubtrees() != n {
		t.Errorf("table holds %d entries, want one per row (%d)", e.CachedSubtrees(), n)
	}
	if spliced := e.SplicedBytes(); spliced == 0 {
		t.Error("nothing spliced")
	}
}

// Rebase: a caller that keeps a byte-identical earlier copy instead of
// the latest output hands it over, and the encoder stops pinning the
// discarded output while its splices keep working; a copy that differs
// drops the table.
func TestEncoderRebase(t *testing.T) {
	e := NewEncoder()
	doc := catalogDoc(20, "v1")
	for _, c := range doc.Children {
		c.Freeze()
	}
	published := e.MarshalIndentBytes(doc)
	again := e.MarshalIndentBytes(NewElement("catalog").Append(doc.Children...))
	discarded := weak.Make(&again[0])
	e.Rebase(published)
	again = nil
	for i := 0; i < 5 && discarded.Value() != nil; i++ {
		runtime.GC()
	}
	if discarded.Value() != nil {
		t.Error("the encoder still pins the output its caller discarded")
	}
	next := NewElement("catalog").Append(doc.Children[1:]...)
	before := e.SplicedBytes()
	if got := e.MarshalIndentBytes(next); !bytes.Equal(got, MarshalIndentBytes(next)) {
		t.Fatal("encode after Rebase diverges from MarshalIndentBytes")
	}
	if e.SplicedBytes() == before {
		t.Error("nothing spliced from the rebased copy")
	}
	e.Rebase([]byte("<other/>\n"))
	if e.CachedSubtrees() != 0 {
		t.Errorf("a differing copy left %d entries", e.CachedSubtrees())
	}
	if got := e.MarshalIndentBytes(doc); !bytes.Equal(got, MarshalIndentBytes(doc)) {
		t.Fatal("encode after a dropped table diverges")
	}
	runtime.KeepAlive(published)
}
