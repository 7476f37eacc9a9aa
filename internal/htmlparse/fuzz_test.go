package htmlparse

import (
	"strings"
	"testing"

	"repro/internal/dom"
)

// FuzzParse is the native fuzz target for the HTML parser: on any input
// whatsoever, Parse must not panic, must synthesize the html/body
// skeleton, and must produce a structurally sound tree that Reindex
// accepts (consistent pre/post numbering, well-formed parent/sibling
// links).
//
// Run with `go test -fuzz=FuzzParse ./internal/htmlparse`; without
// -fuzz the seed corpus doubles as a regression test.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"plain text",
		"<html><body><p>hi</p></body></html>",
		"<table><tr><td>a<td>b<tr><td>c</table>",
		"<ul><li>one<li>two</ul>",
		"<div><span>x</span><!-- c --><br></div>",
		"<p>broken <b>nest</p></b>",
		"</html></body></p>",
		"<a href='x' class=\"y\" checked>link</a>",
		"<script>if (a < b) { x(); }</script>",
		"<<<>>><tag<<",
		"&amp;&lt;&unknown;&#65;&#x41;",
		"<p attr=>empty</p><p =broken>",
		"<!DOCTYPE html><html><head><title>t</title></head></html>",
		// Raw text whose lower-case form has another UTF-8 length: these
		// panicked or mis-sliced while the end tag was searched in a
		// lower-cased copy (TestRawTextEndTagInPlace).
		"<script>" + strings.Repeat("\u023a", 12) + "</script>",
		"<script>\u023a\u023a</script><p>x</p>",
		"<title>\u0130\u212a</TITLE><p>x</p>",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tr := Parse(src)
		if tr == nil {
			t.Fatal("Parse returned nil")
		}
		if tr.Size() == 0 {
			t.Fatal("Parse returned an empty tree")
		}
		if tr.Label(tr.Root()) != "html" {
			t.Fatalf("root label = %q, want html", tr.Label(tr.Root()))
		}
		tr.Reindex()
		// Every node must be reachable by the indexer: pre numbers form a
		// permutation, ancestors properly nest, and sibling links agree
		// with parent links.
		seenPre := make([]bool, tr.Size())
		for i := 0; i < tr.Size(); i++ {
			n := dom.NodeID(i)
			p := tr.Pre(n)
			if p < 0 || p >= tr.Size() || seenPre[p] {
				t.Fatalf("node %d: bad or duplicate pre number %d", i, p)
			}
			seenPre[p] = true
			if par := tr.Parent(n); par != dom.Nil {
				if !tr.IsAncestor(par, n) {
					t.Fatalf("node %d: parent %d is not an ancestor after Reindex", i, par)
				}
			} else if n != tr.Root() {
				t.Fatalf("node %d: orphan non-root", i)
			}
			if s := tr.NextSibling(n); s != dom.Nil && tr.Parent(s) != tr.Parent(n) {
				t.Fatalf("node %d: next sibling %d has a different parent", i, s)
			}
		}
		if tr.SubtreeSize(tr.Root()) != tr.Size() {
			t.Fatalf("root subtree size %d != tree size %d", tr.SubtreeSize(tr.Root()), tr.Size())
		}
	})
}

// FuzzParseOracle is the differential fuzz target for the fused
// builder: on any input, Parse must produce a tree identical to the one
// the frozen seed parser ParseLegacy (oracle_test.go) builds through
// the string API — isomorphic structure, equal fingerprints, and node
// by node the same kind, label, text, parent and in-order attribute
// list (assertSameTree).
func FuzzParseOracle(f *testing.F) {
	seeds := []string{
		"",
		"<html><body><p>hi</p></body></html>",
		"<table><tr><td>a<td>b<tr><td>c</table>",
		"<html lang=en a=1 a=2><body class=main>dup</body></html>",
		"<p>broken <b>nest</p></b>",
		"<a href='x' class=\"y\" checked>link</a>",
		"<!DOCTYPE html><html><head><title>t</title></head></html>",
		"<<<>>><tag<<",
		"<script>" + strings.Repeat("\u023a", 12) + "</script>",
		"<script>\u023a\u023a</script><p>x</p>",
		"<title>\u0130\u212a</TITLE><p>x</p>",
		"<Books><BOOK Id=1>x</book><li>a<li>b</BOOKS></body>z",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		assertSameTree(t, Parse(src), ParseLegacy(src))
	})
}
