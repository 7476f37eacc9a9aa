package htmlparse

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dom"
)

// cataloguePage rebuilds the page shape of the benchmark's upstream
// (bench/upstream, a module this one cannot import): sections blocks
// of rows table rows with a name and a price cell, no inter-tag
// whitespace; allSale tags every row, otherwise one row per section.
func cataloguePage(sections, rows int, allSale bool) string {
	var b strings.Builder
	b.WriteString("<html><body>")
	for s := 0; s < sections; s++ {
		b.WriteString(`<div class="section"><table>`)
		for r := 0; r < rows; r++ {
			b.WriteString(`<tr><td class="name">`)
			if allSale || r == s%rows {
				b.WriteString("SALE ")
			}
			fmt.Fprintf(&b, `item %d.%d @0</td><td class="price">$ %d.%02d</td></tr>`, s, r, 10+(s*7+r)%90, (s+r*3)%100)
		}
		b.WriteString(`</table></div>`)
	}
	b.WriteString("</body></html>")
	return b.String()
}

// arenaDiffDocs are representative documents for the builder-vs-legacy
// differential: the fuzz seeds, every repair rule on its own, and
// larger structured pages of the kind the benchmarks exercise.
func arenaDiffDocs() []string {
	docs := []string{
		"",
		"plain text",
		"<html><body><p>hi</p></body></html>",
		"<table><tr><td>a<td>b<tr><td>c</table>",
		"<ul><li>one<li>two</ul>",
		"<div><span>x</span><!-- c --><br></div>",
		"<p>broken <b>nest</b></p>",
		"</html></body></p>",
		"<a href='x' class=\"y\" checked>link</a>",
		"<script>if (a < b) { x(); }</script>",
		"<<<>>><tag<<",
		"&amp;&lt;&unknown;&#65;&#x41;",
		"<p attr=>empty</p><p =broken>",
		"<!DOCTYPE html><html><head><title>t</title></head></html>",
		"<html lang=en a=1 a=2><body class=main>dup attr</body></html>",
		// Unknown and mixed-case tags, matched by name on the stack.
		"<Books><BOOK Id=1><Title>x</Title></book><book>y</BOOKS>z",
		"<custom-el><x:y a=1>t</x:y></custom-el><DIV CLASS=Up><Span>s</SPAN></div>",
		"<foo><bar></foo>after</bar><FOO></fOo>",
		// Unclosed li/td/tr/p/option/dt/dd and the barriers that stop them.
		"<ul><li>a<ul><li>b<li>c</ul><li>d</ul>",
		"<table><thead><tr><th>h<th>i<tbody><tr><td>a<td>b<tfoot><tr><td>f</table>",
		"<table><tr><td><table><tr><td>in<tr><td>in2</table><td>out</table>",
		"<p>one<p>two<div><p>three</div><p>four",
		"<select><option>a<option>b</select><dl><dt>t<dd>d<dt>t2</dl>",
		"<td>loose<td>cells<tr>and<tr>rows<li>x<li>y",
		// Stray and void end tags, html/body reopened by trailing content.
		"</div></p><p>x</span></p></br></img>",
		"<body><p>a</body>trailing<p>b</html>more<!--c--></body></html>end",
		"<br><hr/><img src=x><input disabled><p/>after<a/>b",
		// Head-only documents and head elements before any body content.
		"<html><head><title>t</title><meta charset=x><link rel=y><base href=z><style>p{}</style></head></html>",
		"<html><title>t</title><meta a=b><p>body</p><title>late</title>",
		"<title>first</title><meta x=y>",
		"<head></head>",
		"<html><head><body bgcolor=red><head><body class=again>x",
		// Raw-text elements.
		"<script>a</b><c></SCRIPT><p>after",
		"<style>p < q { }</style ><textarea><b>not bold</b></TextArea><title></title>",
		"<script>unterminated <p>still script",
		"<script/><p>markup</p><title>  </title><textarea>\n</textarea>",
		"<script></scriptx>tail</script>end",
		// Whitespace, entities and odd attribute syntax.
		" \n<p> \t </p>\v\f&#32;&nbsp;<p>&nbsp;x</p>\u0085\u00a0<i>\u2003</i>",
		"<a HREF=x TITLE='A &amp; B' data-\u00c4=\u00c4 / b>t</a><p a = 'q' b= c d>",
		"<a href=x/><b/ c>self?</b><p a=\"unterminated",
		"<!--unterminated",
		"<!-- a --><!DOCTYPE x><?pi y?><!>text<!",
	}
	var b strings.Builder
	b.WriteString("<html><head><title>listing</title></head><body><table>")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "<tr class=row id=r%d><td><b>item %d</b></td><td><a href=\"/item/%d\">$%d.00</a></td></tr>", i, i, i, i)
	}
	b.WriteString("</table></body></html>")
	docs = append(docs, b.String())
	// The benchmark's page shapes: churn* 60x40, wide5 20x40 all-SALE.
	docs = append(docs, cataloguePage(60, 40, false), cataloguePage(20, 40, true))
	return docs
}

// assertSameTree checks every property the builder must preserve:
// isomorphism, fingerprints, and node by node the kind, label, text,
// parent and in-order attribute list (dom.Equal compares attributes by
// name lookup and ignores ids, so both are pinned separately).
func assertSameTree(t testing.TB, got, legacy *dom.Tree) {
	t.Helper()
	if !dom.Equal(got, legacy) {
		t.Fatalf("tree differs from legacy tree:\ngot:    %s\nlegacy: %s", got, legacy)
	}
	if gf, lf := got.Fingerprint(), legacy.Fingerprint(); gf != lf {
		t.Fatalf("fingerprint mismatch: got %#x, legacy %#x", gf, lf)
	}
	if got.Size() != legacy.Size() {
		t.Fatalf("size mismatch: got %d, legacy %d", got.Size(), legacy.Size())
	}
	for i := 0; i < got.Size(); i++ {
		n := dom.NodeID(i)
		if got.Kind(n) != legacy.Kind(n) || got.Label(n) != legacy.Label(n) || got.Text(n) != legacy.Text(n) || got.Parent(n) != legacy.Parent(n) {
			t.Fatalf("node %d: got %v %q %q under %d, legacy %v %q %q under %d", i,
				got.Kind(n), got.Label(n), got.Text(n), got.Parent(n),
				legacy.Kind(n), legacy.Label(n), legacy.Text(n), legacy.Parent(n))
		}
		ga, la := got.Attrs(n), legacy.Attrs(n)
		if len(ga) != len(la) {
			t.Fatalf("node %d: attr count %d != %d", i, len(ga), len(la))
		}
		for j := range ga {
			if ga[j] != la[j] {
				t.Fatalf("node %d attr %d: %v != %v", i, j, ga[j], la[j])
			}
		}
	}
}

// TestParseArenaMatchesLegacy is the deterministic differential: the
// fused builder must be tree-identical to the frozen seed parser on a
// spread of well-formed, malformed, and large inputs.
func TestParseArenaMatchesLegacy(t *testing.T) {
	for _, src := range arenaDiffDocs() {
		assertSameTree(t, Parse(src), ParseLegacy(src))
	}
}

// TestRawTextEndTagInPlace pins the raw-text scan against the two ways
// the old one (offsets taken from a lower-cased copy of the rest of the
// document) went wrong on runes whose lower-case form has another
// UTF-8 length: a slice past the end of the source, and an end tag
// swallowed into the text node.
func TestRawTextEndTagInPlace(t *testing.T) {
	for _, tc := range []struct{ src, elem, text, next string }{
		{"<script>" + strings.Repeat("\u023a", 12) + "</script>", "script", strings.Repeat("\u023a", 12), ""},
		{"<script>\u023a\u023a</script><p>x</p>", "script", "\u023a\u023a", "p"},
		{"<title>\u0130\u212a</TITLE><p>x</p>", "title", "\u0130\u212a", "p"},
		{"<style>\u023e{}</sTyLe><p>x</p>", "style", "\u023e{}", "p"},
		{"<textarea>a</b></textarea><p>x</p>", "textarea", "a</b>", "p"},
	} {
		for name, parse := range map[string]func(string) *dom.Tree{"Parse": Parse, "ParseLegacy": ParseLegacy} {
			tr := parse(tc.src)
			el := tr.FirstChild(Body(tr))
			if el == dom.Nil || tr.Label(el) != tc.elem {
				t.Fatalf("%s(%q): first body child is not %s: %s", name, tc.src, tc.elem, tr)
			}
			if got := tr.ElementText(el); got != tc.text {
				t.Errorf("%s(%q): %s text = %q, want %q", name, tc.src, tc.elem, got, tc.text)
			}
			next := ""
			if s := tr.NextSibling(el); s != dom.Nil {
				next = tr.Label(s)
			}
			if next != tc.next {
				t.Errorf("%s(%q): element after %s = %q, want %q: %s", name, tc.src, tc.elem, next, tc.next, tr)
			}
		}
	}
}

// TestLexAttrs states the attribute lexer's results outright: the
// builder and ParseLegacy share it, so the differential cannot see it.
func TestLexAttrs(t *testing.T) {
	for _, tc := range []struct {
		src       string
		want      [][2]string // name, value
		selfClose bool
		rest      string
	}{
		{` href=x class="a b" id='i'>t`, [][2]string{{"href", "x"}, {"class", "a b"}, {"id", "i"}}, false, "t"},
		{" HREF=x TITLE='A &amp; B' data-\u00c4=\u00c4&lt; / b>t", [][2]string{{"href", "x"}, {"title", "A & B"}, {"data-\u00e4", "\u00c4<"}, {"b", ""}}, true, "t"},
		{` a = 'q' b= c d>`, [][2]string{{"a", "q"}, {"b", "c"}, {"d", ""}}, false, ""},
		{` a=x/>t`, [][2]string{{"a", "x/"}}, false, "t"},
		{`/>t`, nil, true, "t"},
		{` =broken attr=>t`, [][2]string{{"broken", ""}, {"attr", ""}}, false, "t"},
		{` a="unterminated`, [][2]string{{"a", "unterminated"}}, false, ""},
		{``, nil, false, ""},
	} {
		attrs, selfClose, end := lexAttrs(tc.src, 0, nil)
		var got [][2]string
		for _, a := range attrs {
			got = append(got, [2]string{a.Name, a.Value})
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) || selfClose != tc.selfClose || tc.src[end:] != tc.rest {
			t.Errorf("lexAttrs(%q) = %v, %v, rest %q; want %v, %v, rest %q", tc.src, got, selfClose, tc.src[end:], tc.want, tc.selfClose, tc.rest)
		}
	}
}

// TestTagCodes pins the classification switch: every coded name has a
// code of its own (the rules table built from ParseLegacy's maps relies
// on it), upper case classifies like lower, and other names are
// tagOther.
func TestTagCodes(t *testing.T) {
	names := []string{"html", "head", "body", "script", "style", "textarea", "title"}
	for n := range voidElements {
		names = append(names, n)
	}
	for n, closed := range autoClose {
		names = append(append(names, n), closed...)
	}
	for n := range closeBarrier {
		names = append(names, n)
	}
	for n := range headElements {
		names = append(names, n)
	}
	byCode := map[tagCode]string{}
	for _, n := range names {
		c := tagCodeOf(n)
		if c == tagOther || c >= numTags {
			t.Errorf("tagCodeOf(%q) = %d", n, c)
		}
		if prev, ok := byCode[c]; ok && prev != n {
			t.Errorf("%q and %q share tag code %d", prev, n, c)
		}
		byCode[c] = n
		if lc, end := scanName(strings.ToUpper(n)+">", 0, cTagName); lc != n || end != len(n) {
			t.Errorf("scanName(%q) = %q, %d, want %q, %d", strings.ToUpper(n)+">", lc, end, n, len(n))
		}
	}
	if len(byCode) != int(numTags)-1 {
		t.Errorf("%d names cover %d codes, want all %d", len(names), len(byCode), numTags-1)
	}
	for _, n := range []string{"", "a", "span", "books", "tablex", "custom-el"} {
		if c := tagCodeOf(n); c != tagOther {
			t.Errorf("tagCodeOf(%q) = %d, want tagOther", n, c)
		}
	}
}

// TestParseAllocs pins the allocation collapse the arena-backed
// builder exists for. The representative page has ~1200 elements; the
// legacy parser allocates a few per node (token attr slices, per-node
// appends, attr map churn), the builder a small constant number of
// regions plus the interned strings. A generous cap still catches any per-node
// regression, and the ≥3× ratio is the PR's acceptance criterion.
func TestParseAllocs(t *testing.T) {
	src := arenaDiffDocs()[len(arenaDiffDocs())-3]
	arena := testing.AllocsPerRun(20, func() {
		if Parse(src) == nil {
			t.Fatal("nil tree")
		}
	})
	legacy := testing.AllocsPerRun(20, func() {
		if ParseLegacy(src) == nil {
			t.Fatal("nil tree")
		}
	})
	t.Logf("allocs/op: arena %.0f, legacy %.0f", arena, legacy)
	if arena*3 > legacy {
		t.Errorf("arena parse allocates %.0f/op, legacy %.0f/op: want >= 3x reduction", arena, legacy)
	}
	// Absolute backstop: the arena path must stay within a small budget
	// that cannot hide a per-node allocation on a ~1600-node document.
	const maxAllocs = 400
	if arena > maxAllocs {
		t.Errorf("arena parse allocates %.0f/op, want <= %d", arena, maxAllocs)
	}
}

// TestParseAllocBudget pins the tree layout on the benchmark's 60x40
// page (12 122 nodes, 4 860 attributes): a handful of arenas sized up
// front — about 33 bytes a node and 12 an attribute, where string
// headers and per-node attribute slices took 78 and 89 allocations —
// so the layout cannot erode unnoticed.
func TestParseAllocBudget(t *testing.T) {
	src := cataloguePage(60, 40, false)
	var tree *dom.Tree
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// Parse defers the build; Size forces it, inside the measured run.
	allocs := testing.AllocsPerRun(10, func() { tree = Parse(src); tree.Size() })
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / 11 // AllocsPerRun warms up with one extra run
	t.Logf("%d nodes from %d source bytes: %.0f allocations, %d bytes", tree.Size(), len(src), allocs, bytes)
	if allocs > 16 || bytes > 560<<10 {
		t.Errorf("Parse of the catalogue page: %.0f allocations, %d bytes; budget 16 allocations, %d bytes", allocs, bytes, 560<<10)
	}
	// Unbuilt, a parsed page is its source and a key: a steady poll
	// pays this much and no more.
	if n := testing.AllocsPerRun(10, func() { tree = Parse(src) }); n > 2 {
		t.Errorf("Parse without a build: %.0f allocations, want at most 2", n)
	}
	if n := testing.AllocsPerRun(10, func() { tree.ContentKey() }); n != 0 {
		t.Errorf("ContentKey: %.0f allocations, want 0", n)
	}
	if tree.ContentKey() != Parse(src).ContentKey() {
		t.Error("equal sources give different content keys")
	}
}

// BenchmarkParseCatalogue parses the benchmark's 60x40 page (the
// churn* workloads of bench/): MB/s here is htmlparse.mb_per_s there.
func BenchmarkParseCatalogue(b *testing.B) {
	src := cataloguePage(60, 40, false)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if t := Parse(src); t.Size() != 60*(5*40+2)+2 {
			b.Fatalf("parsed %d nodes", t.Size())
		}
	}
}
