package lixto

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/dom"
	"repro/internal/elog"
	"repro/internal/htmlparse"
	"repro/internal/web"
	"repro/internal/xmlenc"
)

const bookPage = `
<html><body>
  <table class="books">
    <tr class="book"><td class="title">Foundations of Databases</td><td class="price">$ 54.00</td></tr>
    <tr class="book"><td class="title">The Complexity of XPath</td><td class="price">$ 9.50</td></tr>
  </table>
</body></html>`

const bookWrapper = `
page(S, X)  <- document("shop", S), subelem(S, .body, X)
book(S, X)  <- page(_, S), subelem(S, (?.tr, [(class, book, exact)]), X)
title(S, X) <- book(_, S), subelem(S, (?.td, [(class, title, exact)]), X)
price(S, X) <- book(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
`

func TestCompileExtractHTML(t *testing.T) {
	w, err := Compile(bookWrapper, WithAuxiliary("page"), WithRoot("books"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Extract(context.Background(), HTML(bookPage))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Instances("book")); got != 2 {
		t.Fatalf("books: got %d, want 2", got)
	}
	xml := res.XML()
	if xml.Name != "books" {
		t.Fatalf("root: %q", xml.Name)
	}
	if got := len(xml.Find("title")); got != 2 {
		t.Fatalf("titles in XML: %d", got)
	}
}

func TestExtractTreeSource(t *testing.T) {
	w := MustCompile(bookWrapper)
	res, err := w.Extract(context.Background(), Tree(htmlparse.Parse(bookPage)))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Instances("title")); got != 2 {
		t.Fatalf("titles: %d", got)
	}
}

func TestParseErrorPositioned(t *testing.T) {
	_, err := Compile("a(S, X) <- document(\"u\", S), subelem(S, .body, X)\n\nbroken(")
	if err == nil {
		t.Fatal("expected error")
	}
	le := AsError(err)
	if le.Kind != KindParse {
		t.Fatalf("kind: %s", le.Kind)
	}
	if le.Pos == nil || le.Pos.Rule != 2 || le.Pos.Line != 3 {
		t.Fatalf("pos: %+v", le.Pos)
	}
}

func TestUndefinedPatternPositioned(t *testing.T) {
	_, err := Compile(`a(S, X) <- document("u", S), subelem(S, .body, X)
b(S, X) <- nosuch(_, S), subelem(S, .td, X)`)
	if err == nil {
		t.Fatal("expected error")
	}
	le := AsError(err)
	if le.Kind != KindParse || le.Pos == nil || le.Pos.Rule != 2 {
		t.Fatalf("got %s %+v", le.Kind, le.Pos)
	}
}

func TestStratifyErrorKind(t *testing.T) {
	// a and b negate each other through pattern references: no
	// stratified semantics.
	src := `a(S, X) <- document("u", S), subelem(S, .body, X), not b(_, X)
b(S, X) <- document("u", S), subelem(S, .body, X), not a(_, X)`
	_, err := Compile(src)
	if err == nil {
		t.Fatal("expected stratification error")
	}
	if le := AsError(err); le.Kind != KindStratify {
		t.Fatalf("kind: %s (%v)", le.Kind, err)
	}
}

func TestFetchErrorKind(t *testing.T) {
	w := MustCompile(bookWrapper)
	// Origin without a fetcher is an eval error (misuse).
	if _, err := w.Extract(context.Background(), Origin()); AsError(err).Kind != KindEval {
		t.Fatalf("origin without fetcher: %v", err)
	}
	// A fetcher that cannot serve the entry page is a fetch error.
	failing := elog.FetcherFunc(func(url string) (*dom.Tree, error) { return nil, errors.New("boom") })
	_, err := w.Extract(context.Background(), Origin(), WithFetcher(failing))
	if err == nil {
		t.Fatal("expected fetch error")
	}
	if le := AsError(err); le.Kind != KindFetch {
		t.Fatalf("kind: %s (%v)", le.Kind, err)
	}
}

func TestNoEntryPointIsEvalError(t *testing.T) {
	// The program compiles but mentions no document: an inline page has
	// nowhere to go.
	w := MustCompile(`p(S, X) <- p(_, S), subelem(S, .a, X)
q(S, X) <- p(_, S), subelem(S, .b, X)`)
	if _, err := w.Extract(context.Background(), HTML("<body></body>")); AsError(err).Kind != KindEval {
		t.Fatalf("inline page without entry point: %v", err)
	}
}

func TestWithRename(t *testing.T) {
	w := MustCompile(bookWrapper, WithAuxiliary("page"), WithRename("book", "item"))
	res, err := w.Extract(context.Background(), HTML(bookPage))
	if err != nil {
		t.Fatal(err)
	}
	xml := res.XML()
	if got := len(xml.Find("item")); got != 2 || len(xml.Find("book")) != 0 {
		t.Fatalf("renamed elements: %d items\n%s", got, xmlenc.MarshalIndent(xml))
	}
}

func TestContextCancellation(t *testing.T) {
	w := MustCompile(bookWrapper, WithFetcher(elog.MapFetcher{"shop": htmlparse.Parse(bookPage)}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := w.Extract(ctx, Origin())
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(Canceled) false: %v", err)
	}
	if le := AsError(err); le.Kind != KindFetch {
		t.Fatalf("kind: %s", le.Kind)
	}
}

func TestURLSource(t *testing.T) {
	sim := web.New()
	web.NewBookSite(7, 5).Register(sim, "books.example.com")
	w := MustCompile(bookWrapper, WithFetcher(sim))
	res, err := w.Extract(context.Background(), URL("books.example.com/bestsellers.html"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances("book")) == 0 {
		t.Fatal("no books from URL source")
	}
	// A URL the fetcher cannot resolve is a fetch error.
	_, err = w.Extract(context.Background(), URL("books.example.com/nope.html"))
	if le := AsError(err); err == nil || le.Kind != KindFetch {
		t.Fatalf("bad URL: %v", err)
	}
}

func TestWithCacheOffMatchesCompiled(t *testing.T) {
	w := MustCompile(bookWrapper)
	a, err := w.Extract(context.Background(), HTML(bookPage))
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Extract(context.Background(), HTML(bookPage), WithCache(false))
	if err != nil {
		t.Fatal(err)
	}
	ax, bx := xmlenc.MarshalIndent(a.XML()), xmlenc.MarshalIndent(b.XML())
	if ax != bx {
		t.Fatalf("compiled and interpreted outputs differ:\n%s\n----\n%s", ax, bx)
	}
}

func TestPerCallDesignDoesNotLeak(t *testing.T) {
	w := MustCompile(bookWrapper)
	if _, err := w.Extract(context.Background(), HTML(bookPage), WithRoot("other"), WithAuxiliary("book")); err != nil {
		t.Fatal(err)
	}
	if w.Design().RootName != "" || w.Design().Auxiliary["book"] {
		t.Fatalf("per-call design options leaked into the wrapper: %+v", w.Design())
	}
}

func TestExtractAll(t *testing.T) {
	w := MustCompile(bookWrapper, WithConcurrency(4))
	pages := []Source{HTML(bookPage), HTML(bookPage), HTML("<html><body></body></html>"), nil}
	results, err := w.ExtractAll(context.Background(), pages)
	if err == nil {
		t.Fatal("expected joined error for the nil source")
	}
	if results[0] == nil || results[1] == nil || results[2] == nil {
		t.Fatalf("missing results: %v", results)
	}
	if results[3] != nil {
		t.Fatal("nil source should have no result")
	}
	if got := len(results[0].Instances("book")); got != 2 {
		t.Fatalf("fan-out result: %d books", got)
	}
	if got := len(results[2].Instances("book")); got != 0 {
		t.Fatalf("empty page: %d books", got)
	}
}

func TestConcurrentExtractSharedWrapper(t *testing.T) {
	w := MustCompile(bookWrapper)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := w.Extract(context.Background(), HTML(bookPage))
			if err == nil && len(res.Instances("book")) != 2 {
				err = errors.New("wrong book count")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrawlLimitIsEvalError(t *testing.T) {
	// A wrapper that crawls from page to page forever.
	src := `page(S, X) <- document("a", S), subelem(S, .body, X)
link(S, X) <- page(_, S), subelem(S, ?.a, X)
href(S, X) <- link(_, S), subatt(S, href, X)
next(S, X) <- href(_, S), getDocument(S, X)
page2(S, X) <- next(_, S), subelem(S, .body, X)
link2(S, X) <- page2(_, S), subelem(S, ?.a, X)
href2(S, X) <- link2(_, S), subatt(S, href, X)
next2(S, X) <- href2(_, S), getDocument(S, X)`
	pages := elog.MapFetcher{}
	for _, u := range []string{"a", "b", "c", "d", "e"} {
		next := string(rune(u[0] + 1))
		pages[u] = htmlparse.Parse(`<html><body><a href="` + next + `">next</a></body></html>`)
	}
	w := MustCompile(src, WithFetcher(pages), WithMaxDocuments(2))
	_, err := w.Extract(context.Background(), Origin())
	if err == nil {
		t.Fatal("expected crawl limit error")
	}
	if le := AsError(err); le.Kind != KindEval {
		t.Fatalf("kind: %s (%v)", le.Kind, err)
	}
}

func TestStringRoundTrip(t *testing.T) {
	w := MustCompile(bookWrapper)
	if _, err := Compile(w.String()); err != nil {
		t.Fatalf("program did not round-trip: %v\n%s", err, w.String())
	}
}

func TestSDKMatchesCoreOnEbay(t *testing.T) {
	const figure5 = `
tableseq(S, X) <- document("www.ebay.com/", S),
    subsq(S, (.body, []), (.table, []), (.table, []), X),
    before(S, X, (.table, [(elementtext, item, substr)]), 0, 0, _, _),
    after(S, X, .hr, 0, 0, _, _)
record(S, X) <- tableseq(_, S), subelem(S, .table, X)
itemdes(S, X) <- record(_, S), subelem(S, (?.td.?.a, []), X)
`
	sim := web.New()
	web.NewAuctionSite(2004, 25).Register(sim, "www.ebay.com")
	w := MustCompile(figure5, WithFetcher(sim), WithAuxiliary("tableseq"))
	res, err := w.Extract(context.Background(), Origin())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Instances("record")); got != 25 {
		t.Fatalf("records: %d, want 25", got)
	}
	if got := len(res.XML().Find("itemdes")); got != 25 {
		t.Fatalf("itemdes in XML: %d, want 25", got)
	}
}

const listWrapper = `
page(S, X) <- document("site/list.html", S), subelem(S, .body, X)
entry(S, X) <- page(_, S), subelem(S, ?.li, X)
`

// Inline HTML is extracted through the wrapper's entry document, and the
// auxiliary pattern stays out of the XML.
func TestWrapHTML(t *testing.T) {
	w := MustCompile(listWrapper, WithAuxiliary("page"))
	res, err := w.Extract(context.Background(), HTML(`<body><ul><li>alpha</li><li>beta</li></ul></body>`))
	if err != nil {
		t.Fatal(err)
	}
	s := xmlenc.MarshalIndent(res.XML())
	if strings.Count(s, "<entry>") != 2 || !strings.Contains(s, "alpha") {
		t.Errorf("xml:\n%s", s)
	}
}

// Origin() fetches the wrapper's own document URL from the fetcher.
func TestWrapAgainstSimulatedWeb(t *testing.T) {
	sim := web.New()
	web.NewBookSite(3, 4).Register(sim, "books.example.com")
	w := MustCompile(`
page(S, X) <- document("books.example.com/bestsellers.html", S), subelem(S, .body, X)
book(S, X) <- page(_, S), subelem(S, (?.tr, [(class, book, exact)]), X)
title(S, X) <- book(_, S), subelem(S, (?.td, [(class, title, exact)]), X)
`, WithAuxiliary("page"), WithFetcher(sim))
	res, err := w.Extract(context.Background(), Origin())
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(xmlenc.Marshal(res.XML()), "<title>"); got != 4 {
		t.Errorf("titles = %d\n%s", got, xmlenc.MarshalIndent(res.XML()))
	}
}
