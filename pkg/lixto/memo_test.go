package lixto

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/concepts"
	"repro/internal/dom"
	"repro/internal/htmlparse"
	"repro/internal/xmlenc"
)

// countingSite serves pages parsed fresh from their source on every
// fetch, as a site fetcher does, and counts the fetches of each URL.
type countingSite struct {
	mu    sync.Mutex
	pages map[string]string
	n     map[string]int
}

func newCountingSite(pages map[string]string) *countingSite {
	return &countingSite{pages: pages, n: map[string]int{}}
}

func (c *countingSite) Fetch(url string) (*dom.Tree, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n[url]++
	page, ok := c.pages[url]
	if !ok {
		return nil, fmt.Errorf("404 %s", url)
	}
	return htmlparse.Parse(page), nil
}

func (c *countingSite) set(url, page string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pages[url] = page
}

// counts returns the fetches per URL since the last call.
func (c *countingSite) counts() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.n
	c.n = map[string]int{}
	return out
}

// bookPageN is bookPage with n books.
func bookPageN(n int) string {
	var b strings.Builder
	b.WriteString(`<html><body><table class="books">`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<tr class="book"><td class="title">Book %d</td><td class="price">$ %d.00</td></tr>`, i, 10+i)
	}
	b.WriteString(`</table></body></html>`)
	return b.String()
}

const crawlWrapper = `index(S, X) <- document("site/index.html", S), subelem(S, .body, X)
link(S, X) <- index(_, S), subelem(S, ?.a, X)
url(S, X) <- link(_, S), subatt(S, href, X)
page(S, X) <- url(_, S), getDocument(S, X)
title(S, X) <- page(_, S), subelem(S, ?.title, X)`

const crawlIndex = `<html><body><a href="a.html">a</a><a href="b.html">b</a></body></html>`

func titlePage(title string) string {
	return `<html><head><title>` + title + `</title></head><body></body></html>`
}

// TestExtractUnchangedIsMemoized pins the wrapper's memo: an extraction
// over unchanged pages, with the options of the last rendered run,
// returns that Result itself (the same XML document) and counts a hit;
// a changed page, other output-shaping options, a per-call design edit,
// the interpreted path and a run with a failed crawl fetch evaluate, and
// extract what a fresh wrapper extracts.
func TestExtractUnchangedIsMemoized(t *testing.T) {
	ctx := context.Background()
	hits := func(w *Wrapper) uint64 { h, _ := w.FetchStats(); return h }
	extract := func(w *Wrapper, src Source, opts ...Option) *Result {
		t.Helper()
		res, err := w.Extract(ctx, src, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res.XML()
		return res
	}
	memoized := func(what string, w *Wrapper, src Source) *Result {
		t.Helper()
		first := extract(w, src)
		before := hits(w)
		again := extract(w, src)
		if again != first || again.XML() != first.XML() || hits(w) != before+1 {
			t.Fatalf("%s: repeat over the unchanged page was not answered from the memo (same result %v, hits %d -> %d)",
				what, again == first, before, hits(w))
		}
		return first
	}
	// evaluates extracts src with opts after a memoized run and fails
	// unless the call evaluated and equals a fresh wrapper's output.
	evaluates := func(what string, w *Wrapper, src Source, fresh func() *Wrapper, opts ...Option) {
		t.Helper()
		last := memoized(what, w, src)
		before := hits(w)
		res := extract(w, src, opts...)
		if res == last || hits(w) != before {
			t.Fatalf("%s: answered from the memo", what)
		}
		want, err := fresh().Extract(ctx, src, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := xmlenc.MarshalIndent(res.XML()), xmlenc.MarshalIndent(want.XML()); got != want {
			t.Fatalf("%s:\n%s\nwant (fresh wrapper):\n%s", what, got, want)
		}
	}

	site := newCountingSite(map[string]string{"shop": bookPageN(3)})
	opts := []Option{WithAuxiliary("page"), WithIncrementalOutput(true), WithFetcher(site)}
	fresh := func() *Wrapper { return MustCompile(bookWrapper, opts...) }
	for _, src := range []struct {
		name string
		src  Source
	}{{"Origin", Origin()}, {"HTML", HTML(bookPageN(3))}} {
		w := fresh()
		memoized(src.name, w, src.src)
		for _, c := range []struct {
			name string
			opts []Option
		}{
			{"WithConcepts", []Option{WithConcepts(concepts.NewBase())}},
			{"WithMaxDocuments", []Option{WithMaxDocuments(5)}},
			{"WithMaxInstances", []Option{WithMaxInstances(1000)}},
			{"design edit", []Option{WithRoot("shelf")}},
			{"WithCache(false)", []Option{WithCache(false)}},
		} {
			evaluates(src.name+" "+c.name, w, src.src, fresh, c.opts...)
		}
	}

	// A changed page evaluates, and its result is memoized in turn.
	w := fresh()
	last := memoized("Origin", w, Origin())
	site.set("shop", bookPageN(4))
	res := extract(w, Origin())
	if res == last {
		t.Fatal("changed page answered from the memo")
	}
	if got, want := xmlenc.MarshalIndent(res.XML()), xmlenc.MarshalIndent(extract(fresh(), Origin()).XML()); got != want {
		t.Fatalf("changed page:\n%s\nwant (fresh wrapper):\n%s", got, want)
	}
	if again := extract(w, Origin()); again != res {
		t.Fatal("repeat over the changed page's new version was not memoized")
	}
	changed := HTML(bookPageN(5))
	if res := extract(w, changed); res == last || xmlenc.MarshalIndent(res.XML()) != xmlenc.MarshalIndent(extract(fresh(), changed).XML()) {
		t.Fatal("a changed inline page was answered from the memo or differs from a fresh wrapper's output")
	}

	// A crawl whose link fails is never answered from the memo: the next
	// run fetches the link again and extracts the page once it is served.
	crawl := newCountingSite(map[string]string{"site/index.html": crawlIndex, "site/a.html": titlePage("A")})
	cw := MustCompile(crawlWrapper, WithIncrementalOutput(true), WithFetcher(crawl))
	first := extract(cw, Origin())
	if again := extract(cw, Origin()); again == first || hits(cw) != 0 {
		t.Fatalf("a run with a failed fetch was answered from the memo (%d hits)", hits(cw))
	}
	crawl.set("site/b.html", titlePage("B"))
	got := xmlenc.MarshalIndent(extract(cw, Origin()).XML())
	want := xmlenc.MarshalIndent(extract(MustCompile(crawlWrapper, WithFetcher(crawl)), Origin()).XML())
	if got != want || !strings.Contains(got, "B") {
		t.Fatalf("after the failed fetch:\n%s\nwant (fresh wrapper):\n%s", got, want)
	}
}

// TestExtractFetchesEachPageOnce counts the fetches of every URL per
// extraction, on a memo hit and on a miss, for a single-page wrapper
// and for a crawl over three pages: the memo's re-fetch is the fetch
// the evaluation reads, never a second one.
func TestExtractFetchesEachPageOnce(t *testing.T) {
	ctx := context.Background()
	site := newCountingSite(map[string]string{
		"shop":            bookPageN(3),
		"site/index.html": crawlIndex,
		"site/a.html":     titlePage("A"),
		"site/b.html":     titlePage("B"),
	})
	for _, c := range []struct {
		name, prog string
		urls       []string
		change     string
	}{
		{"one page", bookWrapper, []string{"shop"}, "shop"},
		{"crawl", crawlWrapper, []string{"site/index.html", "site/a.html", "site/b.html"}, "site/b.html"},
	} {
		w := MustCompile(c.prog, WithIncrementalOutput(true), WithFetcher(site))
		site.counts()
		for i, step := range []string{"cold", "hit", "miss", "hit"} {
			if step == "miss" {
				site.set(c.change, titlePage(fmt.Sprint("changed ", i)))
			}
			before, _ := w.FetchStats()
			res, err := w.Extract(ctx, Origin())
			if err != nil {
				t.Fatal(err)
			}
			res.XML()
			after, _ := w.FetchStats()
			if hit := after > before; hit != (step == "hit") {
				t.Errorf("%s, %s extraction: memo hit %v", c.name, step, hit)
			}
			n := site.counts()
			for _, url := range c.urls {
				if n[url] != 1 {
					t.Errorf("%s, %s extraction: %s fetched %d times, want once (%v)", c.name, step, url, n[url], n)
				}
			}
			if len(n) != len(c.urls) {
				t.Errorf("%s, %s extraction fetched %v, want %v", c.name, step, n, c.urls)
			}
		}
	}
}
