package main

import (
	"context"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/htmlparse"
	"repro/internal/mdatalog"
	"repro/internal/xmlenc"
	"repro/internal/xpath"
	"repro/pkg/lixto"
)

// The quickstart wrapper compiles and extracts through the public SDK.
func TestQuickstartWrapper(t *testing.T) {
	w, err := lixto.Compile(wrapper, lixto.WithAuxiliary("page"), lixto.WithRoot("books"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Extract(context.Background(), lixto.HTML(page))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Instances("book")); got != 3 {
		t.Fatalf("books: got %d, want 3", got)
	}
	xml := xmlenc.MarshalIndent(res.XML())
	if !strings.Contains(xml, "<books>") || !strings.Contains(xml, "The Complexity of XPath") {
		t.Fatalf("unexpected XML:\n%s", xml)
	}
	for _, pat := range []string{"title", "price"} {
		if got := len(res.Instances(pat)); got != 3 {
			t.Fatalf("%s: got %d, want 3", pat, got)
		}
	}
}

// The quickstart's XPath query and monadic datalog program select the
// title cells and all table cells of the page.
func TestQuickstartQueries(t *testing.T) {
	doc := htmlparse.Parse(page)
	q, err := xpath.Parse(titleCells)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := xpath.EvalFull(q, doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("XPath title cells: %d, want 3", len(cells))
	}
	prog, err := datalog.Parse(tableCells)
	if err != nil {
		t.Fatal(err)
	}
	tds, err := mdatalog.Query(prog, doc, "cell")
	if err != nil {
		t.Fatal(err)
	}
	if len(tds) != 6 {
		t.Fatalf("monadic datalog table cells: %d, want 6", len(tds))
	}
}

// Core XPath queries go to the Core evaluator, extended ones (positional
// predicates) to the full one; a malformed query is refused.
func TestXPathFacade(t *testing.T) {
	doc := htmlparse.Parse(`<body><table><tr><td>a</td><td><a href="#">l</a></td></tr></table></body>`)
	p, err := xpath.Parse("//td[not(a)]")
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsCore() {
		t.Fatalf("//td[not(a)] is not Core XPath")
	}
	core, err := xpath.EvalCore(p, doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(core) != 1 {
		t.Errorf("core query: %v", core)
	}
	p, err = xpath.Parse("//td[1]")
	if err != nil {
		t.Fatal(err)
	}
	ext, err := xpath.EvalFull(p, doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != 1 {
		t.Errorf("extended query: %v", ext)
	}
	if _, err := xpath.Parse("///"); err == nil {
		t.Error("bad query accepted")
	}
}

// A recursive monadic datalog program over τ_ur selects the italic
// subtree; a malformed program is refused.
func TestMonadicDatalogFacade(t *testing.T) {
	doc := htmlparse.Parse(`<body><p>x</p><i><b>y</b></i></body>`)
	prog, err := datalog.Parse(`
italic(X) :- label_i(X).
italic(X) :- italic(X0), firstchild(X0, X).
italic(X) :- italic(X0), nextsibling(X0, X).
`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mdatalog.Query(prog, doc, "italic")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Error("no italic nodes")
	}
	if _, err := datalog.Parse("bad("); err == nil {
		t.Error("bad program accepted")
	}
}
