package lixto_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/fetchcache"
	"repro/internal/web"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

const cacheProg = `page(S, X)  <- document("books.example.com/bestsellers.html", S), subelem(S, .body, X)
title(S, X) <- page(_, S), subelem(S, (?.td, [(class, title, exact)]), X)`

// TestWithSharedCache checks a shared fetch cache end to end through the
// SDK, reached the one way it is: a fetcher wrapped by the cache
// (WithFetcher(cache.Wrap(f))). Concurrent Origin extractions of two
// wrappers sharing it fetch+parse the page once, and the result is
// byte-identical to uncached extraction.
func TestWithSharedCache(t *testing.T) {
	newSim := func() *web.Web {
		sim := web.New()
		web.NewBookSite(7, 5).Register(sim, "books.example.com")
		return sim
	}

	plainSim := newSim()
	plain := lixto.MustCompile(cacheProg, lixto.WithFetcher(plainSim), lixto.WithAuxiliary("page"))
	res, err := plain.Extract(context.Background(), lixto.Origin())
	if err != nil {
		t.Fatal(err)
	}
	want := xmlenc.MarshalIndent(res.XML())

	cachedSim := newSim()
	cache := fetchcache.New(64, time.Hour)
	w1 := lixto.MustCompile(cacheProg, lixto.WithFetcher(cache.Wrap(cachedSim)),
		lixto.WithAuxiliary("page"))
	w2 := w1.Rebind() // second wrapper, same fetcher and cache

	var wg sync.WaitGroup
	outs := make([]string, 8)
	for i := 0; i < len(outs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := w1
			if i%2 == 1 {
				w = w2
			}
			res, err := w.Extract(context.Background(), lixto.Origin())
			if err != nil {
				t.Error(err)
				return
			}
			outs[i] = xmlenc.MarshalIndent(res.XML())
		}(i)
	}
	wg.Wait()
	for i, got := range outs {
		if got != want {
			t.Fatalf("extraction %d differs behind the shared cache:\n%s\nwant:\n%s", i, got, want)
		}
	}
	if got := cachedSim.FetchCount("books.example.com/bestsellers.html"); got != 1 {
		t.Fatalf("page fetched %d times by 8 concurrent extractions, want 1", got)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits+st.Shared != 7 {
		t.Errorf("cache stats = %+v, want 1 miss and 7 hits+shared", st)
	}

	// Inline HTML sources stay private: they must not populate the
	// shared cache.
	before := cache.Len()
	if _, err := w1.Extract(context.Background(),
		lixto.HTML(`<html><body><table><tr><td class="title">X</td></tr></table></body></html>`)); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != before {
		t.Fatalf("inline extraction leaked into the shared cache (%d -> %d entries)", before, cache.Len())
	}
}
