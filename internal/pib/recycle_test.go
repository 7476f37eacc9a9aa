package pib_test

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/elog"
	"repro/internal/htmlparse"
	"repro/internal/pib"
	"repro/internal/transform"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

// catalogueProgram is the benchmark catalogue wrapper: page → section →
// SALE row → name, price.
const catalogueProgram = `page(S, X)    <- document("cat", S), subelem(S, .body, X)
section(S, X) <- page(_, S), subelem(S, (.div, [(class, section, exact)]), X)
row(S, X)     <- section(_, S), subelem(S, (?.tr, [(elementtext, .*SALE.*, regexp)]), X)
name(S, X)    <- row(_, S), subelem(S, (?.td, [(class, name, exact)]), X)
price(S, X)   <- row(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
`

var catalogueOptions = []lixto.Option{lixto.WithRoot("catalogue"), lixto.WithAuxiliary("page", "section")}

// cataloguePage is version v of a sections×rows catalogue page, every
// row on SALE, in which version v has rewritten section (v-1) mod
// sections and every version before it the sections it rewrote: from
// one version to the next, one section of sections changes (at 20, the
// wide5 workload's 5 % churn).
func cataloguePage(sections, rows, v int) string {
	var sb strings.Builder
	sb.WriteString("<html><body>")
	for s := 0; s < sections; s++ {
		g := 0 // the last version that rewrote section s
		if v > s {
			g = v - (v-1-s)%sections
		}
		sb.WriteString(`<div class="section"><table>`)
		for r := 0; r < rows; r++ {
			fmt.Fprintf(&sb, `<tr><td class="name">SALE item %d.%d @%d</td><td class="price">$ %d.50</td></tr>`,
				s, r, g, 10+(s*31+r*7+g)%90)
		}
		sb.WriteString(`</table></div>`)
	}
	sb.WriteString("</body></html>")
	return sb.String()
}

// cold is the base a from-scratch evaluation of page gives.
func cold(t *testing.T, page string) *pib.Base {
	t.Helper()
	tree := htmlparse.Parse(page)
	tree.Warm()
	base, err := elog.NewEvaluator(elog.MapFetcher{"cat": tree}).RunCompiled(elog.MustCompile(elog.MustParse(catalogueProgram)))
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// TestExtractRecyclesSupersededBase polls a wrapper source over the
// 20×40 catalogue, one section rewritten per poll. Poll v's base is
// built into the storage of poll v-2's, which poll v-1 superseded, so
// of the 20 polls after two warm-up ones at least 19 draw their store
// from the pool — poll 2 too, though poll 0's base is a fresh
// wrapper's, built in geometrically growing chunks with no earlier
// count to size it. From
// poll 4 on, once the output cache's generations are sized for
// maintained renders, each poll allocates under a fixed bound: about
// 160 KB, up to 250 KB when a collection empties the pools in between,
// where a poll whose base is built into fresh memory allocates about
// 660 KB. Like TestExtractRecyclesSupersededTrees, the counts are not
// asserted under -race, whose sync.Pool drops a quarter of what is put
// into it.
func TestExtractRecyclesSupersededBase(t *testing.T) {
	var page string
	site := elog.FetcherFunc(func(string) (*dom.Tree, error) { return htmlparse.Parse(page), nil })
	src := &transform.WrapperSource{CompName: "catalogue", Fetcher: site, NoSourceAttr: true,
		Wrapper: lixto.MustCompile(catalogueProgram, catalogueOptions...)}
	// What a fresh wrapper extracts from each version, taken before the
	// polls so that its bases do not count.
	want := make([]string, 22)
	for v := range want {
		want[v] = xmlenc.MarshalIndent(src.Wrapper.Design().Transform(cold(t, cataloguePage(20, 40, v))))
	}
	poll := func(v int) uint64 {
		t.Helper()
		page = cataloguePage(20, 40, v)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		docs, err := src.Poll()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := xmlenc.MarshalIndent(docs[0]); got != want[v] {
			t.Fatalf("poll %d:\n%s\nwant (fresh wrapper):\n%s", v, got, want[v])
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	runtime.GC() // twice: the pool's victim cache goes with the second
	runtime.GC()
	poll(0)
	poll(1)
	draws := pib.StoreDraws()
	const bound = 320 << 10
	most := uint64(0)
	for v := 2; v < len(want); v++ {
		if bytes := poll(v); v > 3 {
			most = max(most, bytes)
		}
	}
	n := pib.StoreDraws() - draws
	t.Logf("20 changed polls: %d bases drew their store from the pool; a poll allocated at most %d bytes", n, most)
	if raceBuild {
		return
	}
	if n < 19 {
		t.Errorf("%d of 20 bases drew their store from the pool, want at least 19", n)
	}
	if most >= bound {
		t.Errorf("a changed poll allocated %d bytes, want under %d", most, bound)
	}
}

// TestFreshWrapperDrawsItsStore extracts the 20×40 catalogue with two
// fresh wrappers one after the other, three versions each, one section
// rewritten per version, each result released once rendered — the
// oneshot workload's register, extract, delete. Every base but the
// first two of the process draws storage from the pool: the first
// wrapper's second changed extraction takes chunks its cold base was
// built in, and the second wrapper's cold base and its first changed
// extraction take what the first wrapper left. The collector, which
// empties the pools, is off meanwhile. Not asserted under -race, whose
// sync.Pool drops a quarter of what is put into it.
func TestFreshWrapperDrawsItsStore(t *testing.T) {
	runtime.GC() // twice: the pool's victim cache goes with the second
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var drew []bool
	for range 2 {
		w := lixto.MustCompile(catalogueProgram, append(catalogueOptions, lixto.WithIncrementalOutput(true))...)
		for v := range 3 {
			page := cataloguePage(20, 40, v)
			draws := pib.StoreDraws()
			res, err := w.Extract(context.Background(), lixto.Origin(), lixto.WithFetcher(elog.FetcherFunc(func(string) (*dom.Tree, error) {
				return htmlparse.Parse(page), nil
			})))
			if err != nil {
				t.Fatal(err)
			}
			res.XML()
			res.Release()
			drew = append(drew, pib.StoreDraws() > draws)
		}
	}
	t.Logf("extractions that drew their store from the pool: %v", drew)
	if raceBuild {
		return
	}
	for i, d := range drew[2:] {
		if !d {
			t.Errorf("wrapper %d, version %d: the base drew no store from the pool", (i+2)/3+1, (i+2)%3)
		}
	}
}

// TestPoisonedPoolBases fills the pools with decoys before every
// extraction (see PoisonPools), their document a catalogue page that
// shares all but one section with the page extracted: each maintained
// base, and each cold one a one-shot with a design of its own builds,
// must still Dump as a cold evaluation's and render the same bytes, so
// nothing a base or a transform reads comes from what the pool held.
func TestPoisonedPoolBases(t *testing.T) {
	patterns := []string{"document", "page", "section", "row", "name", "price"}
	w := lixto.MustCompile(catalogueProgram, append(catalogueOptions, lixto.WithIncrementalOutput(true))...)
	check := func(what string, v int, res *lixto.Result, design *pib.Design, page string) {
		t.Helper()
		base := cold(t, page)
		if got, want := res.Base.Dump(), base.Dump(); got != want {
			t.Fatalf("%s %d: the base diverges from a cold evaluation:\n--- want ---\n%s--- got ---\n%s", what, v, want, got)
		}
		if got, want := xmlenc.MarshalIndent(res.XML()), xmlenc.MarshalIndent(design.Transform(base)); got != want {
			t.Fatalf("%s %d: output diverges:\n%s\nwant\n%s", what, v, got, want)
		}
		res.Release()
	}
	parsing := func(page string) lixto.Option {
		return lixto.WithFetcher(elog.FetcherFunc(func(string) (*dom.Tree, error) { return htmlparse.Parse(page), nil }))
	}
	own := *w.Design()
	own.RootName = "offers"
	runtime.GC()
	runtime.GC()
	res, err := w.Extract(context.Background(), lixto.Origin(), parsing(cataloguePage(4, 3, 0)))
	if err != nil {
		t.Fatal(err)
	}
	check("poll", 0, res, w.Design(), cataloguePage(4, 3, 0))
	n := int(w.OutputStats().BaseInstances)
	fresh := n
	for v := 1; v <= 12; v++ {
		page := cataloguePage(4, 3, v)
		decoy := htmlparse.Parse(cataloguePage(4, 3, v+1))
		decoy.Warm()
		// Where a cold base, a maintained one and its dedup table of
		// fresh instances look.
		pib.PoisonPools(decoy, patterns, n, fresh)
		grafted := w.Compiled().Incremental().InstancesGrafted
		res, err := w.Extract(context.Background(), lixto.Origin(), parsing(page))
		if err != nil {
			t.Fatal(err)
		}
		check("poll", v, res, w.Design(), page)
		n = int(w.OutputStats().BaseInstances)
		fresh = n - int(w.Compiled().Incremental().InstancesGrafted-grafted)

		pib.PoisonPools(decoy, patterns, n)
		res, err = w.Extract(context.Background(), lixto.HTML(page), lixto.WithRoot("offers"))
		if err != nil {
			t.Fatal(err)
		}
		check("one-shot", v, res, &own, page)
	}
	if fresh == n {
		t.Fatal("no extraction grafted")
	}
}

// TestRecycledBaseReadsEmpty: a recycled base has no instance, pattern
// or root, a second Recycle does nothing, and an evaluation maintained
// from it falls back to a cold one.
func TestRecycledBaseReadsEmpty(t *testing.T) {
	page := cataloguePage(4, 3, 1)
	tree := htmlparse.Parse(page)
	tree.Warm()
	cp := elog.MustCompile(elog.MustParse(catalogueProgram))
	ev := elog.NewEvaluator(elog.MapFetcher{"cat": tree})
	base, err := ev.RunCompiled(cp)
	if err != nil {
		t.Fatal(err)
	}
	want := base.Dump()
	base.Recycle()
	base.Recycle()
	if base.Count() != 0 || len(base.Roots) != 0 || len(base.Patterns()) != 0 || base.Instances("row") != nil ||
		base.Dump() != "" || base.Bytes() != 0 || base.Origin != nil {
		t.Fatalf("a recycled base is not empty: %d instances, %d roots, patterns %v", base.Count(), len(base.Roots), base.Patterns())
	}
	got, err := ev.RunMaintained(cp, base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dump() != want {
		t.Fatalf("an evaluation maintained from a recycled base diverges:\n%s\nwant\n%s", got.Dump(), want)
	}
	if cp.Incremental().InstancesGrafted != 0 {
		t.Fatal("an evaluation grafted from a recycled base")
	}
}
