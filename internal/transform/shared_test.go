package transform

import (
	"strings"
	"testing"
	"time"

	"repro/internal/elog"
	"repro/internal/fetchcache"
	"repro/internal/pib"
	"repro/internal/web"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

const sharedPage = `<html><body><table>
<tr class="book"><td class="title">Foundations of Databases</td></tr>
<tr class="book"><td class="title">The Complexity of XPath</td></tr>
</table></body></html>`

const sharedProg = `page(S, X)  <- document("shop.example.com/books", S), subelem(S, .body, X)
title(S, X) <- page(_, S), subelem(S, (?.td, [(class, title, exact)]), X)`

func newSharedSource(name string, sim *web.Web, cache *fetchcache.Cache) *WrapperSource {
	var f elog.Fetcher = sim
	if cache != nil {
		f = cache.Wrap(sim)
	}
	return &WrapperSource{
		CompName: name,
		Fetcher:  f,
		Wrapper:  lixto.MustCompile(sharedProg, lixto.WithDesign(&pib.Design{Auxiliary: map[string]bool{"document": true, "page": true}})),
	}
}

// TestWrapperSourcesShareFetches pins the shared fetch layer at the
// transform level: N wrapper sources polling the same page through one
// cache trigger one upstream fetch, and their output is byte-identical
// to uncached polling.
func TestWrapperSourcesShareFetches(t *testing.T) {
	simShared := web.New()
	simShared.SetStatic("shop.example.com/books", sharedPage)
	simPrivate := web.New()
	simPrivate.SetStatic("shop.example.com/books", sharedPage)

	cache := fetchcache.New(16, time.Hour)
	var docs []string
	for i := 0; i < 5; i++ {
		src := newSharedSource("shared", simShared, cache)
		out, err := src.Poll()
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, xmlenc.MarshalIndent(out[0]))
	}
	if got := simShared.FetchCount("shop.example.com/books"); got != 1 {
		t.Fatalf("shared page fetched %d times by 5 sources, want 1", got)
	}

	// Byte identity against a private (uncached) source.
	private := newSharedSource("shared", simPrivate, nil)
	out, err := private.Poll()
	if err != nil {
		t.Fatal(err)
	}
	want := xmlenc.MarshalIndent(out[0])
	for i, got := range docs {
		if got != want {
			t.Fatalf("source %d output differs under the shared cache:\n%s\nwant:\n%s", i, got, want)
		}
	}
	if simPrivate.FetchCount("shop.example.com/books") != 1 {
		t.Fatalf("private source fetch count unexpected")
	}
	if st := cache.Stats(); st.Hits != 4 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want 4 hits / 1 miss", st)
	}
}

// TestSharedCacheRefreshObservesChanges checks that freshness still
// works through the shared layer: once the cache window lapses, a
// changed page reaches the wrapper (monitoring is not frozen).
func TestSharedCacheRefreshObservesChanges(t *testing.T) {
	sim := web.New()
	sim.SetStatic("shop.example.com/books", sharedPage)
	cache := fetchcache.New(16, time.Millisecond)
	src := newSharedSource("w", sim, cache)
	out, err := src.Poll()
	if err != nil {
		t.Fatal(err)
	}
	before := xmlenc.MarshalIndent(out[0])

	sim.SetStatic("shop.example.com/books",
		`<html><body><table><tr class="book"><td class="title">New Arrival</td></tr></table></body></html>`)
	time.Sleep(5 * time.Millisecond) // let the freshness window lapse
	out, err = src.Poll()
	if err != nil {
		t.Fatal(err)
	}
	after := xmlenc.MarshalIndent(out[0])
	if before == after {
		t.Fatal("wrapper never observed the page change through the shared cache")
	}
	if !strings.Contains(after, "New Arrival") {
		t.Fatalf("unexpected refreshed output:\n%s", after)
	}
}
