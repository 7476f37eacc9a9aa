package lixto

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/dom"
	"repro/internal/elog"
	"repro/internal/fetchcache"
	"repro/internal/htmlparse"
	"repro/internal/xmlenc"
)

// parsingFetcher serves page at the catalogue program's entry URL,
// parsed afresh on every fetch as a site fetcher does: the tree comes
// back unbuilt, so a maintained extraction adopts it.
type parsingFetcher string

func (p parsingFetcher) Fetch(string) (*dom.Tree, error) { return htmlparse.Parse(string(p)), nil }

// releaseWrapper is the catalogue wrapper with the wrapper's retained
// result on, the setup under which Results are recycled.
func releaseWrapper() *Wrapper {
	return MustCompile(catalogueTickProgram, WithRoot("catalogue"), WithAuxiliary("page", "section"), WithIncrementalOutput(true))
}

// intact fails unless res is what a cold evaluation of page gives: its
// base Dumps as the cold base, its page tree is a full parse of page
// (nodes, index and subtree hashes, which a recycled or reused tree
// would not be), and its XML renders as the cold base does.
func intact(t *testing.T, what string, w *Wrapper, res *Result, page string) {
	t.Helper()
	want, err := elog.NewEvaluator(catalogueFetcher(page)).RunCompiled(elog.MustCompile(w.Program()))
	if err != nil {
		t.Error(err)
		return
	}
	if got := res.Base.Dump(); got != want.Dump() {
		t.Errorf("%s: base diverges from a cold evaluation:\n--- want ---\n%s--- got ---\n%s", what, want.Dump(), got)
		return
	}
	doc, fresh := res.Instances("document")[0].Doc, htmlparse.Parse(page)
	fresh.Warm()
	if !dom.Equal(doc, fresh) || doc.Fingerprint() != fresh.Fingerprint() ||
		doc.SubtreeSize(doc.Root()) != fresh.Size() || doc.SubtreeHash(doc.Root()) != fresh.SubtreeHash(fresh.Root()) {
		t.Errorf("%s: the result's page tree is not its page", what)
		return
	}
	if got, plain := xmlenc.MarshalIndent(res.XML()), xmlenc.MarshalIndent(w.Design().Transform(want)); got != plain {
		t.Errorf("%s: output diverges:\n%s\nvs\n%s", what, got, plain)
	}
}

// TestReleaseRacingOneShot runs scheduled-style polls (extract, render,
// Release) and one-shot extractions on one wrapper at once, over pages
// of their own that change every call: each extraction is maintained
// from, and recycles, whichever result the wrapper retained, the other
// loop's as often as its own. Every result read before its Release
// must still be its page's cold result. Run under -race.
func TestReleaseRacingOneShot(t *testing.T) {
	w := releaseWrapper()
	const n = 30
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // a scheduled source: Origin through its fetcher
		defer wg.Done()
		next := cataloguePages(12, 6)
		for i := 0; i < n; i++ {
			page := next()
			res, err := w.Extract(context.Background(), Origin(), WithFetcher(parsingFetcher(page)))
			if err != nil {
				t.Error(err)
				return
			}
			intact(t, "poll", w, res, page)
			res.Release()
		}
	}()
	go func() { // a one-shot caller posting pages of another shape
		defer wg.Done()
		next := cataloguePages(10, 5)
		for i := 0; i < n; i++ {
			html := next()
			res, err := w.Extract(context.Background(), HTML(html))
			if err != nil {
				t.Error(err)
				return
			}
			intact(t, "one-shot", w, res, html)
			res.Release()
		}
	}()
	wg.Wait()
}

// TestReleaseRacingOwnDesign: a one-shot caller whose extractions carry
// a design of their own renders through the plain Transform path, not
// the wrapper's output cache, and releases each result, while polls on
// the same wrapper release theirs: the caller's bases are recycled as
// soon as it lets go, the polls' once superseded, and every result read
// before its Release is still its page's cold result. Run under -race.
func TestReleaseRacingOwnDesign(t *testing.T) {
	w := releaseWrapper()
	const n = 30
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		next := cataloguePages(12, 6)
		for i := 0; i < n; i++ {
			page := next()
			res, err := w.Extract(context.Background(), Origin(), WithFetcher(parsingFetcher(page)))
			if err != nil {
				t.Error(err)
				return
			}
			intact(t, "poll", w, res, page)
			res.Release()
		}
	}()
	go func() {
		defer wg.Done()
		next := cataloguePages(10, 5)
		for i := 0; i < n; i++ {
			html := next()
			res, err := w.Extract(context.Background(), HTML(html), WithRoot("offers"))
			if err != nil {
				t.Error(err)
				return
			}
			want, err := elog.NewEvaluator(catalogueFetcher(html)).RunCompiled(elog.MustCompile(w.Program()))
			if err != nil {
				t.Error(err)
				return
			}
			if got := res.Base.Dump(); got != want.Dump() {
				t.Errorf("one-shot %d: base diverges from a cold evaluation:\n--- want ---\n%s--- got ---\n%s", i, want.Dump(), got)
			}
			design := *w.Design()
			design.RootName = "offers"
			if got, plain := xmlenc.MarshalIndent(res.XML()), xmlenc.MarshalIndent(design.Transform(want)); got != plain {
				t.Errorf("one-shot %d: output diverges:\n%s\nvs\n%s", i, got, plain)
			}
			res.Release()
		}
	}()
	wg.Wait()
}

// TestUnreleasedResultStaysReadable: a result its caller never releases
// is never recycled, however many extractions supersede it.
func TestUnreleasedResultStaysReadable(t *testing.T) {
	w := releaseWrapper()
	next := cataloguePages(12, 6)
	first := next()
	kept, err := w.Extract(context.Background(), Origin(), WithFetcher(parsingFetcher(first)))
	if err != nil {
		t.Fatal(err)
	}
	xml := xmlenc.MarshalIndent(kept.XML())
	for i := 0; i < 50; i++ {
		res, err := w.Extract(context.Background(), Origin(), WithFetcher(parsingFetcher(next())))
		if err != nil {
			t.Fatal(err)
		}
		res.XML()
		res.Release()
	}
	intact(t, "unreleased result after 50 extractions", w, kept, first)
	if got := xmlenc.MarshalIndent(kept.XML()); got != xml {
		t.Errorf("the unreleased result renders differently:\n%s\nwant\n%s", got, xml)
	}
}

// TestDoubleRelease: a second Release of one *Result, or the Release of
// the handle a memo hit returned, drops no hold but the caller's own,
// so the tree stays whole for the wrapper and for every other holder.
func TestDoubleRelease(t *testing.T) {
	ctx := context.Background()
	extract := func(w *Wrapper, page string) *Result {
		t.Helper()
		res, err := w.Extract(ctx, Origin(), WithFetcher(parsingFetcher(page)))
		if err != nil {
			t.Fatal(err)
		}
		res.XML()
		return res
	}
	next := cataloguePages(12, 6)

	// Released twice while the wrapper retains it: a memo hit on the
	// same page, and the extraction maintained from it, read it whole.
	w := releaseWrapper()
	p1 := next()
	r1 := extract(w, p1)
	r1.Release()
	r1.Release()
	if hit := extract(w, p1); hit != r1 {
		t.Fatal("the unchanged page was not answered from the memo")
	}
	intact(t, "retained result released twice", w, r1, p1)
	p2 := next()
	intact(t, "extraction maintained from it", w, extract(w, p2), p2)

	// A memo hit hands the same *Result to a second caller: that
	// caller's Release, even twice, and the wrapper moving on leave it
	// whole for the first.
	w = releaseWrapper()
	p3 := next()
	r3 := extract(w, p3)
	hit := extract(w, p3)
	if hit != r3 {
		t.Fatal("the unchanged page was not answered from the memo")
	}
	hit.Release()
	hit.Release()
	p4 := next()
	r4 := extract(w, p4) // supersedes r3 as the retained result
	r4.Release()
	intact(t, "memo-hit result after its second holder released it", w, r3, p3)
	r3.Release()
	p5 := next()
	intact(t, "extraction after both released", w, extract(w, p5), p5)
}

// TestSharedCacheTreesNeverRecycled: the trees a shared fetch cache
// serves are built and warmed by the cache, so an extraction reads them
// as they are, never adopts them, and never recycles them; every one
// stays whole after its results were released and superseded.
func TestSharedCacheTreesNeverRecycled(t *testing.T) {
	next := cataloguePages(12, 6)
	var page string
	site := elog.FetcherFunc(func(string) (*dom.Tree, error) { return htmlparse.Parse(page), nil })
	cache := fetchcache.New(16, time.Hour)
	shared := cache.Wrap(site)
	w := MustCompile(catalogueTickProgram, WithRoot("catalogue"), WithAuxiliary("page", "section"),
		WithIncrementalOutput(true), WithFetcher(shared))
	served := map[*dom.Tree]string{}
	for i := 0; i < 8; i++ {
		page = next()
		cache.Invalidate("cat")
		res, err := w.Extract(context.Background(), Origin())
		if err != nil {
			t.Fatal(err)
		}
		res.XML()
		cached, _ := shared.Fetch("cat")
		if doc := res.Instances("document")[0].Doc; doc != cached {
			t.Fatalf("extraction %d read a tree other than the cache's", i)
		}
		served[cached] = page
		res.Release()
	}
	for tree, src := range served {
		fresh := htmlparse.Parse(src)
		fresh.Warm()
		if !dom.Equal(tree, fresh) || tree.Fingerprint() != fresh.Fingerprint() {
			t.Fatal("a tree the shared cache served changed after its results were released")
		}
	}
}
