package transform

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dom"
	"repro/internal/elog"
	"repro/internal/fetchcache"
	"repro/internal/htmlparse"
	"repro/internal/web"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

const memoURL = "shop.example.com/list"

const memoProg = `page(S, X) <- document("shop.example.com/list", S), subelem(S, .body, X)
item(S, X) <- page(_, S), subelem(S, (?.td, [(class, name, exact)]), X)`

// memoPage renders a table of rows rows; mark varies one cell.
func memoPage(rows int, mark string) string {
	var b strings.Builder
	b.WriteString("<html><body><table>")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, `<tr><td class="name">item %d%s</td><td class="price">$ %d</td></tr>`, i, mark, 10+i)
	}
	b.WriteString("</table></body></html>")
	return b.String()
}

// freshFetcher hands out whatever tree was installed last: a tree no
// one has warmed, like a fetch cache's or a site fetcher's result.
type freshFetcher struct{ tree atomic.Pointer[dom.Tree] }

func (f *freshFetcher) Fetch(string) (*dom.Tree, error) { return f.tree.Load(), nil }

func memoSource(f elog.Fetcher) *WrapperSource {
	return &WrapperSource{CompName: "w", Fetcher: f, Wrapper: lixto.MustCompile(memoProg)}
}

// TestPollMemoSharedUnwarmedTree hands one unbuilt tree to many
// wrapper sources polling at once, as a shared fetch layer does: the
// memo check reads its content key while sources that miss go on to
// build, warm and evaluate it. Run under -race.
func TestPollMemoSharedUnwarmedTree(t *testing.T) {
	const n = 8
	f := &freshFetcher{}
	srcs := make([]*WrapperSource, n)
	for i := range srcs {
		srcs[i] = memoSource(f)
	}
	round := func(page string, wantHits uint64) string {
		t.Helper()
		f.tree.Store(htmlparse.Parse(page))
		out := make([]string, n)
		var wg sync.WaitGroup
		for i, s := range srcs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				docs, err := s.Poll()
				if err != nil || len(docs) != 1 {
					t.Errorf("source %d: %d docs, err %v", i, len(docs), err)
					return
				}
				out[i] = xmlenc.MarshalIndent(docs[0])
			}()
		}
		wg.Wait()
		for i, s := range srcs {
			if out[i] != out[0] {
				t.Fatalf("source %d extracted a different document:\n%s\nvs\n%s", i, out[i], out[0])
			}
			if s.ExtractionStats().PollCacheHits != wantHits {
				t.Fatalf("source %d: %d memo hits, want %d", i, s.ExtractionStats().PollCacheHits, wantHits)
			}
		}
		return out[0]
	}
	first := round(memoPage(50, ""), 0)    // cold: every source warms and evaluates the one tree
	same := round(memoPage(50, ""), 1)     // a fresh, equal tree: every source only reads its key
	changed := round(memoPage(50, "!"), 1) // a fresh, changed tree: hash, miss, warm, evaluate
	if same != first || changed == first {
		t.Fatalf("memo served the wrong document: same==first %v, changed==first %v", same == first, changed == first)
	}
}

// TestPollMemoHitIsHashOnly bounds what a steady-state poll allocates
// on a cloned tree nobody has warmed, whose content key is its
// fingerprint: the subtree-hash table and the poll's own bookkeeping,
// but no pre/post/size index and no label bitsets — those belong to
// the miss path. It also pins parse_ns: the fetch of a
// memo hit is timed like any other.
func TestPollMemoHitIsHashOnly(t *testing.T) {
	const runs = 20
	page := htmlparse.Parse(memoPage(400, ""))
	fresh := make([]*dom.Tree, runs+4) // first poll, warm-up run, runs, two more
	for i := range fresh {
		fresh[i] = page.Clone()
	}
	f := &freshFetcher{}
	next := func() { f.tree.Store(fresh[0]); fresh = fresh[1:] }
	src := memoSource(f)
	next()
	if _, err := src.Poll(); err != nil {
		t.Fatal(err)
	}
	before := src.ExtractionStats().ParseNS
	if before == 0 {
		t.Fatal("parse_ns is 0 after the first poll")
	}
	allocs := testing.AllocsPerRun(runs, func() {
		next()
		if docs, err := src.Poll(); err != nil || len(docs) != 1 {
			t.Fatalf("poll: %d docs, err %v", len(docs), err)
		}
	})
	if src.ExtractionStats().PollCacheHits != runs+1 {
		t.Fatalf("%d memo hits in %d steady-state polls", src.ExtractionStats().PollCacheHits, runs+1)
	}
	// The hash table, the extraction's option set and its fetcher, and
	// the emitted one-document slice. A full Warm adds three more
	// (index, bitset backing, bitset headers).
	t.Logf("steady-state poll: %.0f allocs", allocs)
	if allocs > 4 {
		t.Errorf("steady-state poll allocates %.0f objects, want <= 4 (hash only)", allocs)
	}
	if after := src.ExtractionStats().ParseNS; after <= before {
		t.Errorf("parse_ns did not grow over %d memo hits: %d -> %d", runs+1, before, after)
	}
	// Every hit adds to it, not just the batch as a whole.
	for i := 0; i < 2; i++ {
		prev := src.ExtractionStats().ParseNS
		next()
		if _, err := src.Poll(); err != nil {
			t.Fatal(err)
		}
		if now := src.ExtractionStats().ParseNS; now <= prev {
			t.Errorf("parse_ns did not grow across a memo hit: %d -> %d", prev, now)
		}
	}
}

// TestPollMemoHitThroughSharedCache bounds a steady poll of the server's
// engine shape: NewWrapperEngineBatched wraps the fetcher with the
// shared fetch cache once, so a poll the cache answers from its entry
// and the memo from its key allocates no more than a memo hit on a
// private fetcher (TestPollMemoHitIsHashOnly's bound).
func TestPollMemoHitThroughSharedCache(t *testing.T) {
	const runs = 20
	f := &freshFetcher{}
	f.tree.Store(htmlparse.Parse(memoPage(400, "")))
	eng, _, err := NewWrapperEngineBatched("w", lixto.MustCompile(memoProg), f, fetchcache.New(16, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	src := eng.Components()[0].(*WrapperSource)
	if _, err := src.Poll(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if docs, err := src.Poll(); err != nil || len(docs) != 1 {
			t.Fatalf("poll: %d docs, err %v", len(docs), err)
		}
	})
	if hits := src.ExtractionStats().PollCacheHits; hits != runs+1 {
		t.Fatalf("%d memo hits in %d steady-state polls", hits, runs+1)
	}
	t.Logf("steady-state poll through the shared cache: %.0f allocs", allocs)
	if allocs > 4 {
		t.Errorf("steady-state poll through the shared cache allocates %.0f objects, want <= 4", allocs)
	}
}

// TestSteadyPollBuildsNoTree bounds the bytes a steady poll allocates
// when every fetch parses fresh, identical bytes, as a site fetcher
// does: the poll hashes the source, finds the key unchanged and
// re-emits the last document, so the tree is never built. The page
// costs its 33 KB of source per poll (the generator copies it); a build
// would add about three times that, and a subtree-hash pass more.
func TestSteadyPollBuildsNoTree(t *testing.T) {
	const runs = 10
	page := memoPage(500, "")
	sim := web.New()
	sim.SetPage(memoURL, func() string { return strings.Clone(page) })
	src := memoSource(sim)
	if _, err := src.Poll(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if docs, err := src.Poll(); err != nil || len(docs) != 1 {
			t.Fatalf("poll: %d docs, err %v", len(docs), err)
		}
	}
	runtime.ReadMemStats(&after)
	if src.ExtractionStats().PollCacheHits != runs {
		t.Fatalf("%d memo hits in %d steady polls", src.ExtractionStats().PollCacheHits, runs)
	}
	perPoll := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("steady poll over a %d-byte page: %d bytes allocated", len(page), perPoll)
	if perPoll >= 64<<10 {
		t.Errorf("a steady poll allocates %d bytes, want < %d: it built the tree", perPoll, 64<<10)
	}
}

// TestPollMemoAfterFailedFetch: a crawled page whose fetch fails is
// skipped as a dangling link, so that run's output rests on a fetch the
// memo cannot re-check. The next poll must run the wrapper again even
// though the entry page is unchanged, and extract what a fresh wrapper
// extracts once the page is served.
func TestPollMemoAfterFailedFetch(t *testing.T) {
	const prog = `index(S, X) <- document("site.example.com/index.html", S), subelem(S, .body, X)
link(S, X) <- index(_, S), subelem(S, ?.a, X)
url(S, X) <- link(_, S), subatt(S, href, X)
page(S, X) <- url(_, S), getDocument(S, X)
title(S, X) <- page(_, S), subelem(S, ?.title, X)`
	sim := web.New()
	sim.SetStatic("site.example.com/index.html", `<html><body><a href="p.html">p</a></body></html>`)
	poll := func(s *WrapperSource) string {
		t.Helper()
		docs, err := s.Poll()
		if err != nil || len(docs) != 1 {
			t.Fatalf("poll: %d docs, err %v", len(docs), err)
		}
		return xmlenc.MarshalIndent(docs[0])
	}
	newSource := func() *WrapperSource {
		return &WrapperSource{CompName: "w", Fetcher: sim, Wrapper: lixto.MustCompile(prog)}
	}
	src := newSource()
	poll(src) // p.html is a 404: the crawl skips it
	sim.SetStatic("site.example.com/p.html", `<html><head><title>hello</title></head></html>`)
	got := poll(src)
	if want := poll(newSource()); got != want {
		t.Fatalf("poll after the failed fetch:\n%s\nwant (fresh wrapper):\n%s", got, want)
	}
	if !strings.Contains(got, "hello") {
		t.Fatalf("the served page was not extracted:\n%s", got)
	}
	if src.ExtractionStats().PollCacheHits != 0 {
		t.Fatalf("%d memo hits after a run with a failed fetch, want 0", src.ExtractionStats().PollCacheHits)
	}
}
