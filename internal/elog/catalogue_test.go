package elog_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/elog"
	"repro/internal/htmlparse"
)

// catalogue mirrors the benchmark's upstream (bench/upstream, a module
// of its own that tests here cannot import): sections <div
// class="section"> blocks of rows <tr> rows, either every row tagged
// SALE or one per section, and a rotating window of sections rewritten
// per version. gen[s] is the version that last rewrote section s.
type catalogue struct {
	sections, rows, window int
	allSale                bool
	gen                    []int
	version                int
}

const catalogueURL = "bench.example.com/catalogue"

// catalogueProgram is the benchmark's five-rule wrapper.
var catalogueProgram = fmt.Sprintf(`page(S, X)    <- document(%q, S), subelem(S, .body, X)
section(S, X) <- page(_, S), subelem(S, (.div, [(class, section, exact)]), X)
row(S, X)     <- section(_, S), subelem(S, (?.tr, [(elementtext, .*SALE.*, regexp)]), X)
name(S, X)    <- row(_, S), subelem(S, (?.td, [(class, name, exact)]), X)
price(S, X)   <- row(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
`, catalogueURL)

func newCatalogue(sections, rows, window int, allSale bool) *catalogue {
	return &catalogue{sections: sections, rows: rows, window: window, allSale: allSale, gen: make([]int, sections)}
}

// next advances the page by one version and returns its fetcher.
func (c *catalogue) next() elog.MapFetcher {
	c.version++
	for i := 0; i < c.window; i++ {
		c.gen[((c.version-1)*c.window+i)%c.sections] = c.version
	}
	var sb strings.Builder
	sb.WriteString("<html><body>")
	for s, g := range c.gen {
		sb.WriteString(`<div class="section"><table>`)
		for r := 0; r < c.rows; r++ {
			sb.WriteString(`<tr><td class="name">`)
			if c.allSale || r == (s+g)%c.rows {
				sb.WriteString("SALE ")
			}
			sb.WriteString("item " + strconv.Itoa(s) + "." + strconv.Itoa(r) + " @" + strconv.Itoa(g))
			sb.WriteString(`</td><td class="price">$ ` + strconv.Itoa(10+(s*31+r*7+g)%90) + `.50</td></tr>`)
		}
		sb.WriteString(`</table></div>`)
	}
	sb.WriteString("</body></html>")
	t := htmlparse.Parse(sb.String())
	t.Warm()
	return elog.MapFetcher{catalogueURL: t}
}

// BenchmarkEvalCatalogue is the eval stage of the benchmark's tick in
// isolation: an incremental RunCompiled over consecutive versions of
// the wide (20×40 all-SALE, 5 % churn) and the churn pages.
func BenchmarkEvalCatalogue(b *testing.B) {
	for _, tc := range []struct {
		name                   string
		sections, rows, window int
		allSale                bool
	}{
		{"wide5", 20, 40, 1, true},
		{"churn5", 60, 40, 3, false},
		{"churn100", 60, 40, 60, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cat := newCatalogue(tc.sections, tc.rows, tc.window, tc.allSale)
			cp := elog.MustCompile(elog.MustParse(catalogueProgram))
			shared := elog.NewMatchCache()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ev := elog.NewEvaluator(cat.next())
				ev.Incremental, ev.Shared = true, shared
				b.StartTimer()
				if _, err := ev.RunCompiled(cp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
