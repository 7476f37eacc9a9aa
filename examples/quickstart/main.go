// Command quickstart is the five-minute tour: compile an Elog wrapper
// with the public SDK (repro/pkg/lixto), run it against a page, and
// print the extracted XML.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/datalog"
	"repro/internal/htmlparse"
	"repro/internal/mdatalog"
	"repro/internal/xmlenc"
	"repro/internal/xpath"
	"repro/pkg/lixto"
)

// A bestseller page as a bookshop might serve it.
const page = `
<html><body>
  <h1>Staff picks</h1>
  <table class="books">
    <tr class="book"><td class="title">Foundations of Databases</td><td class="price">$ 54.00</td></tr>
    <tr class="book"><td class="title">Monadic Datalog and Web Information Extraction</td><td class="price">$ 12.00</td></tr>
    <tr class="book"><td class="title">The Complexity of XPath</td><td class="price">$ 9.50</td></tr>
  </table>
</body></html>`

// The wrapper: an Elog program in the language of Section 3.3 of the
// Lixto paper. Patterns are binary predicates over (parent instance,
// instance); subelem extracts tree nodes by element path definitions.
const wrapper = `
page(S, X)  <- document("shop", S), subelem(S, .body, X)
book(S, X)  <- page(_, S), subelem(S, (?.tr, [(class, book, exact)]), X)
title(S, X) <- book(_, S), subelem(S, (?.td, [(class, title, exact)]), X)
price(S, X) <- book(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
`

// titleCells is an XPath query (with the positional and count()
// extensions beyond Core XPath) for the first cell of every two-cell
// row that has a price.
const titleCells = "//tr[td[@class='price'] and count(td)=2]/td[1]"

// tableCells is a monadic datalog program over the τ_ur signature
// selecting every td below a table, evaluated by the O(|P|·|dom|)
// engine of Theorem 2.4.
const tableCells = `
intable(X) :- label_table(X0), child(X0, X).
intable(X) :- intable(X0), child(X0, X).
cell(X) :- intable(X), label_td(X).
`

func main() {
	// page is an auxiliary pattern: it structures the wrapper but should
	// not appear in the output XML.
	w, err := lixto.Compile(wrapper,
		lixto.WithAuxiliary("page"),
		lixto.WithRoot("books"))
	if err != nil {
		log.Fatal(err)
	}

	res, err := w.Extract(context.Background(), lixto.HTML(page))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(xmlenc.MarshalIndent(res.XML()))

	// The same document is queryable with XPath and monadic datalog.
	doc := htmlparse.Parse(page)
	q, err := xpath.Parse(titleCells)
	if err != nil {
		log.Fatal(err)
	}
	cells, err := xpath.EvalFull(q, doc, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nXPath found %d title cells\n", len(cells))

	prog, err := datalog.Parse(tableCells)
	if err != nil {
		log.Fatal(err)
	}
	tds, err := mdatalog.Query(prog, doc, "cell")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("monadic datalog found %d table cells\n", len(tds))
}
