package lixto

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/elog"
	"repro/internal/htmlparse"
	"repro/internal/xmlenc"
)

// catalogueTickProgram is the benchmark catalogue wrapper (lixtobench's
// program): page → section → SALE row → name, price.
const catalogueTickProgram = `page(S, X)    <- document("cat", S), subelem(S, .body, X)
section(S, X) <- page(_, S), subelem(S, (.div, [(class, section, exact)]), X)
row(S, X)     <- section(_, S), subelem(S, (?.tr, [(elementtext, .*SALE.*, regexp)]), X)
name(S, X)    <- row(_, S), subelem(S, (?.td, [(class, name, exact)]), X)
price(S, X)   <- row(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
`

// cataloguePages returns a generator of consecutive versions of a
// sections×rows catalogue page (every row on SALE) where each version
// rewrites one section: at 20 sections, the wide5 workload's 5 % churn.
func cataloguePages(sections, rows int) func() string {
	gen := make([]int, sections)
	v := 0
	return func() string {
		gen[v%sections] = v + 1
		v++
		var sb strings.Builder
		sb.WriteString("<html><body>")
		for s, g := range gen {
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
}

// catalogueFetcher parses a page and serves it as the program's entry.
func catalogueFetcher(page string) elog.MapFetcher {
	t := htmlparse.Parse(page)
	t.Warm()
	return elog.MapFetcher{"cat": t}
}

// BenchmarkCatalogueTick is one wrapper-source tick without fetch and
// encode: Extract over the next version of the 20×40 catalogue page,
// maintained from the last, its XML through the wrapper's incremental
// output cache, and Release, as transform.WrapperSource.Poll does, so
// that the superseded base is recycled into the next.
func BenchmarkCatalogueTick(b *testing.B) {
	next := cataloguePages(20, 40)
	w := MustCompile(catalogueTickProgram, WithRoot("catalogue"), WithAuxiliary("page", "section"), WithIncrementalOutput(true))
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		page := catalogueFetcher(next())
		b.StartTimer()
		res, err := w.Extract(ctx, Origin(), WithFetcher(page))
		if err != nil {
			b.Fatal(err)
		}
		res.XML()
		res.Release()
	}
}

// TestConcurrentMaintainedExtract runs a tick loop and a one-shot loop
// on one wrapper at once, each over pages of its own: every extraction
// is maintained from whichever base the wrapper rendered last, the
// other loop's as often as its own, and each result must still Dump as
// a from-scratch evaluation of its page and render the same XML.
func TestConcurrentMaintainedExtract(t *testing.T) {
	w := MustCompile(catalogueTickProgram, WithRoot("catalogue"), WithAuxiliary("page", "section"), WithIncrementalOutput(true))
	check := func(who string, i int, res *Result, page elog.MapFetcher) {
		want, err := elog.NewEvaluator(page).RunCompiled(elog.MustCompile(w.Program()))
		if err != nil {
			t.Error(err)
			return
		}
		if got := res.Base.Dump(); got != want.Dump() {
			t.Errorf("%s %d: maintained base diverges from a from-scratch evaluation:\n--- want ---\n%s--- got ---\n%s", who, i, want.Dump(), got)
		}
		if got, plain := xmlenc.MarshalIndent(res.XML()), xmlenc.MarshalIndent(w.Design().Transform(want)); got != plain {
			t.Errorf("%s %d: output diverges:\n%s\nvs\n%s", who, i, got, plain)
		}
	}
	const n = 30
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // a scheduled source: Origin through the configured fetcher
		defer wg.Done()
		next := cataloguePages(12, 6)
		for i := 0; i < n; i++ {
			page := catalogueFetcher(next())
			res, err := w.Extract(context.Background(), Origin(), WithFetcher(page))
			if err != nil {
				t.Error(err)
				return
			}
			check("tick", i, res, page)
		}
	}()
	go func() { // a one-shot caller posting pages of another shape
		defer wg.Done()
		next := cataloguePages(9, 4)
		for i := 0; i < n; i++ {
			html := next()
			res, err := w.Extract(context.Background(), HTML(html))
			if err != nil {
				t.Error(err)
				return
			}
			check("one-shot", i, res, catalogueFetcher(html))
		}
	}()
	wg.Wait()
	if st := w.Compiled().Incremental(); st.InstancesGrafted == 0 {
		t.Errorf("no extraction grafted: %+v", st)
	}
}
