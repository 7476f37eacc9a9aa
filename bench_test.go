// Package repro's root benchmark suite: one benchmark per experiment of
// EXPERIMENTS.md (E1–E17), each regenerating the measurement behind one
// figure or theorem of the paper. Finer-grained parameter sweeps live
// next to their packages (internal/*/..._test.go); these root benches
// are the one-stop `go test -bench=.` entry point.
package repro_test

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"time"

	"repro/internal/apps"
	"repro/internal/automata"
	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/dom"
	"repro/internal/elog"
	"repro/internal/fetchcache"
	"repro/internal/htmlparse"
	"repro/internal/mdatalog"
	"repro/internal/pib"
	"repro/internal/resultlog"
	"repro/internal/server"
	"repro/internal/transform"
	"repro/internal/visual"
	"repro/internal/web"
	"repro/internal/xmlenc"
	"repro/internal/xpath"
	"repro/pkg/lixto"
)

// BenchmarkE01_Figure1_TreeEncoding: unranked tree <-> binary
// firstchild/nextsibling encoding round trip (Figure 1).
func BenchmarkE01_Figure1_TreeEncoding(b *testing.B) {
	tr := dom.RandomTree(rand.New(rand.NewSource(1)), 20000, []string{"a", "b", "c"}, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes, edges := tr.EncodeBinary()
		back := dom.DecodeBinary(nodes, edges)
		if back.Size() != tr.Size() {
			b.Fatal("round trip lost nodes")
		}
	}
}

// BenchmarkE02_Theorem24_LinearEvaluation: monadic datalog over trees in
// O(|P|·|dom|) — one representative point of the sweep in
// internal/mdatalog.
func BenchmarkE02_Theorem24_LinearEvaluation(b *testing.B) {
	p := mdatalog.ItalicProgram()
	for _, size := range []int{2000, 8000, 32000} {
		tr := dom.RandomTree(rand.New(rand.NewSource(2)), size, []string{"a", "i", "b"}, 6)
		b.Run(fmt.Sprintf("dom-%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mdatalog.Eval(p, tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE03_Prop23_GenericVsTree: the generic semi-naive engine vs
// the tree-specialized engine on the same monadic program.
func BenchmarkE03_Prop23_GenericVsTree(b *testing.B) {
	p := mdatalog.ItalicProgram()
	tr := dom.RandomTree(rand.New(rand.NewSource(3)), 2000, []string{"a", "i"}, 5)
	b.Run("tree-engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mdatalog.Eval(p, tr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generic-engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mdatalog.EvalGeneric(p, tr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE04_Theorem27_TMNF: the normal-form translation is linear
// time.
func BenchmarkE04_Theorem27_TMNF(b *testing.B) {
	for _, n := range []int{20, 80, 320} {
		p := mdatalog.RandomProgram(rand.New(rand.NewSource(4)), 6, n, []string{"a", "b", "c"})
		b.Run(fmt.Sprintf("rules-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mdatalog.ToTMNF(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE05_Theorem25_MSOCompilation: automaton-defined MSO query
// compiled to monadic datalog vs evaluated directly.
func BenchmarkE05_Theorem25_MSOCompilation(b *testing.B) {
	tr := dom.RandomTree(rand.New(rand.NewSource(5)), 4000, []string{"a", "b", "c"}, 5)
	a := automata.HasAncestorLabel("a").CompleteAlphabetFor(tr)
	prog := a.CompileToDatalog("selected")
	b.Run("compiled-datalog", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mdatalog.Query(prog, tr, "selected"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct-automaton", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.Select(tr)
		}
	})
}

// BenchmarkE06_Example21_Italic: the paper's first program on a real
// HTML parse tree.
func BenchmarkE06_Example21_Italic(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<html><body>")
	for i := 0; i < 500; i++ {
		sb.WriteString("<p>plain <i>it<b>alic</b></i> more</p>")
	}
	sb.WriteString("</body></html>")
	tr := htmlparse.Parse(sb.String())
	p := mdatalog.ItalicProgram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mdatalog.Query(p, tr, "italic")
		if err != nil || len(res) == 0 {
			b.Fatalf("italic failed: %v", err)
		}
	}
}

// BenchmarkE07_VisualWrapper: full visual construction session plus
// evaluation (Figures 3/4).
func BenchmarkE07_VisualWrapper(b *testing.B) {
	sim := web.New()
	site := web.NewBookSite(7, 20)
	site.Register(sim, "books.example.com")
	doc, err := sim.Fetch("books.example.com/bestsellers.html")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := visual.NewSession(doc, "books.example.com/bestsellers.html")
		if err := s.AddDocumentPattern("page"); err != nil {
			b.Fatal(err)
		}
		r, _ := s.FindText(site.Books[0].Title)
		if _, err := s.AddPattern("title", "page", r); err != nil {
			b.Fatal(err)
		}
		if err := s.GeneralizePath("title", 2); err != nil {
			b.Fatal(err)
		}
		if err := s.RequireAttribute("title", "class", "title", "exact"); err != nil {
			b.Fatal(err)
		}
		counts, err := s.Test()
		if err != nil || counts["title"] != 20 {
			b.Fatalf("titles = %d, err %v", counts["title"], err)
		}
	}
}

// ebayFigure5 is the wrapper of Figure 5 (see internal/elog for the
// syntax notes).
const ebayFigure5 = `
tableseq(S, X) <- document("www.ebay.com/", S),
    subsq(S, (.body, []), (.table, []), (.table, []), X),
    before(S, X, (.table, [(elementtext, item, substr)]), 0, 0, _, _),
    after(S, X, .hr, 0, 0, _, _)
record(S, X) <- tableseq(_, S), subelem(S, .table, X)
itemdes(S, X) <- record(_, S), subelem(S, (?.td.?.a, []), X)
price(S, X) <- record(_, S), subelem(S, (?.td, [(elementtext, \var[Y].*, regvar)]), X), isCurrency(Y)
bids(S, X) <- record(_, S), subelem(S, ?.td, X), before(S, X, ?.td, 0, 30, Y, _), price(_, Y)
currency(S, X) <- price(_, S), subtext(S, \var[Y], X), isCurrency(Y)
`

// BenchmarkE08_Figure5_EbayWrapper: the complete Figure 5 program on a
// generated listing — the seed interpreter against the compiled bitset
// execution (elog.Compile), cold and with a warm fingerprint-keyed
// match cache (the continuous-wrapping server path).
func BenchmarkE08_Figure5_EbayWrapper(b *testing.B) {
	sim := web.New()
	site := web.NewAuctionSite(8, 100)
	site.PageSize = 100
	site.Register(sim, "www.ebay.com")
	page, err := sim.Fetch("www.ebay.com/")
	if err != nil {
		b.Fatal(err)
	}
	fetch := elog.MapFetcher{"www.ebay.com/": page}
	prog := elog.MustParse(ebayFigure5)
	checkRun := func(b *testing.B, base *pib.Base, err error) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		if len(base.Instances("record")) != 100 {
			b.Fatalf("records = %d", len(base.Instances("record")))
		}
	}
	b.Run("interpreted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base, err := elog.NewEvaluator(fetch).Run(prog)
			checkRun(b, base, err)
		}
	})
	b.Run("compiled-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base, err := elog.NewEvaluator(fetch).RunCompiled(elog.MustCompile(prog))
			checkRun(b, base, err)
		}
	})
	b.Run("compiled-cached", func(b *testing.B) {
		cp := elog.MustCompile(prog)
		base, err := elog.NewEvaluator(fetch).RunCompiled(cp) // warm the match cache
		checkRun(b, base, err)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			base, err := elog.NewEvaluator(fetch).RunCompiled(cp)
			checkRun(b, base, err)
		}
	})
}

// BenchmarkE09_CoreXPathLinear: Core XPath combined complexity (one
// representative point; sweeps in internal/xpath).
func BenchmarkE09_CoreXPathLinear(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<html><body>")
	for i := 0; i < 300; i++ {
		sb.WriteString("<div><span>x</span><div><span>y</span></div></div>")
	}
	sb.WriteString("</body></html>")
	tr := htmlparse.Parse(sb.String())
	q := xpath.MustParse("//div[span and not(b)]//span")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xpath.EvalCore(q, tr, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10_Theorem41_NaiveVsPolynomial: the exponential naive
// evaluator vs the linear one on the pathological //div chains.
func BenchmarkE10_Theorem41_NaiveVsPolynomial(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<html><body>")
	depth := 12
	for i := 0; i < depth; i++ {
		sb.WriteString("<div><span>x</span>")
	}
	for i := 0; i < depth; i++ {
		sb.WriteString("</div>")
	}
	sb.WriteString("</body></html>")
	tr := htmlparse.Parse(sb.String())
	q := xpath.MustParse("//div//div//div//div")
	b.Run("naive-exponential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := xpath.EvalNaive(q, tr, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := xpath.EvalCore(q, tr, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11_CQDichotomy: tractable vs NP-hard axis sets (Section 4,
// [18]); sweeps in internal/cq.
func BenchmarkE11_CQDichotomy(b *testing.B) {
	tr := dom.RandomTree(rand.New(rand.NewSource(11)), 250, []string{"a"}, 2)
	hard := &cq.Query{NumVars: 7, Free: -1}
	for i := 0; i < 6; i++ {
		ax := cq.Child
		if i%2 == 1 {
			ax = cq.ChildPlus
		}
		hard.Edges = append(hard.Edges, cq.EdgeAtom{Axis: ax, X: cq.Var(i), Y: cq.Var(i + 1)})
		hard.Labels = append(hard.Labels, cq.LabelAtom{X: cq.Var(i), Label: "a"})
	}
	hard.Labels = append(hard.Labels, cq.LabelAtom{X: 6, Label: "zz"}) // unsatisfiable: full search
	easy := &cq.Query{NumVars: 7, Free: 0}
	for i := 0; i < 6; i++ {
		ax := cq.Child
		if i%2 == 1 {
			ax = cq.NextSiblingStar
		}
		easy.Edges = append(easy.Edges, cq.EdgeAtom{Axis: ax, X: cq.Var(i), Y: cq.Var(i + 1)})
	}
	b.Run("nphard-side", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cq.EvalGeneric(hard, tr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("poly-side", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cq.EvalAcyclic(easy, tr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE12_Theorem46_XPathToTMNF: translate Core XPath to TMNF and
// evaluate.
func BenchmarkE12_Theorem46_XPathToTMNF(b *testing.B) {
	q := xpath.MustParse("//div[span and not(b)]//span")
	tr := htmlparse.Parse(strings.Repeat("<div><span>x</span></div>", 200))
	prog, qpred, err := xpath.TranslateCore(q)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("translate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := xpath.TranslateCore(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("evaluate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mdatalog.Query(prog, tr, qpred); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE13_Figure7_Pipeline: end-to-end transformation-server round
// (two wrappers, integrator, delivery).
func BenchmarkE13_Figure7_Pipeline(b *testing.B) {
	app, err := apps.NewPressClipping(13)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.Engine.Tick()
	}
	if app.Out.Len() == 0 {
		b.Fatal("no deliveries")
	}
}

// BenchmarkE14_NowPlaying: a full 14-source integration step.
func BenchmarkE14_NowPlaying(b *testing.B) {
	app, err := apps.NewNowPlaying(14)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.Step()
	}
	if app.Portal.Len() == 0 {
		b.Fatal("no portal updates")
	}
}

// BenchmarkE15_FlightMonitoring: poll + change-detection round.
func BenchmarkE15_FlightMonitoring(b *testing.B) {
	app, err := apps.NewFlightInfo(15, []apps.Subscription{{Number: "OS103"}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.Step(i%3 == 0)
	}
}

// BenchmarkE16_PressToNITF: wrapping + NITF transformation.
func BenchmarkE16_PressToNITF(b *testing.B) {
	app, err := apps.NewPressClipping(16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.Step(false, 0)
	}
}

// BenchmarkE17_PowerTrading: spot-price integration round.
func BenchmarkE17_PowerTrading(b *testing.B) {
	app, err := apps.NewPowerTrading(17)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.Step()
	}
}

// BenchmarkE20_SharedFetchLayer: a fleet of 1000 wrapper sources
// monitoring 50 shared pages, polled one full round per iteration —
// per-wrapper fetching (every source fetches and parses its page
// privately, the pre-PR-5 behaviour) vs the shared fetch/document
// layer (one fetch+parse per page per freshness window, all sources
// sharing the parsed tree).
func BenchmarkE20_SharedFetchLayer(b *testing.B) {
	const nWrappers, nPages = 1000, 50
	newSim := func() *web.Web {
		sim := web.New()
		for p := 0; p < nPages; p++ {
			sim.SetStatic(fmt.Sprintf("fleet.example.com/p%d", p),
				fmt.Sprintf(`<html><body><table><tr><td class="t">item %d</td></tr><tr><td class="t">more %d</td></tr></table></body></html>`, p, p))
		}
		return sim
	}
	run := func(b *testing.B, cache *fetchcache.Cache) {
		sim := newSim()
		design := &pib.Design{Auxiliary: map[string]bool{"document": true}}
		srcs := make([]*transform.WrapperSource, nWrappers)
		for i := range srcs {
			srcs[i] = &transform.WrapperSource{
				CompName: fmt.Sprintf("w%d", i),
				Fetcher:  sim,
				Wrapper: lixto.MustCompile(fmt.Sprintf(
					`it(S, X) <- document("fleet.example.com/p%d", S), subelem(S, (?.td, [(class, t, exact)]), X)`, i%nPages), lixto.WithDesign(design)),
				Shared: cache,
			}
		}
		// Warm round: populate the caches.
		for _, s := range srcs {
			if _, err := s.Poll(); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range srcs {
				if _, err := s.Poll(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("private", func(b *testing.B) { run(b, nil) })
	b.Run("shared", func(b *testing.B) { run(b, fetchcache.New(nPages*2, time.Hour)) })
}

// BenchmarkE21_BatchedFleetExtraction: 100 wrappers stamped from one
// template, all monitoring the same page, whose content churns every
// round (so no fingerprint cache can short-circuit whole polls). The
// per-wrapper configuration fetches, parses and pattern-matches
// privately — 100 parses and 100 match computations per round. The
// batched configuration shares one fetch/document cache and one
// fleet-shared match cache, so a round costs about one parse plus one
// warmed match cache, with the other 99 wrappers answering their
// matches from the shared table.
func BenchmarkE21_BatchedFleetExtraction(b *testing.B) {
	const nWrappers = 100
	const url = "fleet.example.com/board"
	page := func(round int) string {
		var sb strings.Builder
		sb.WriteString("<html><body><table>")
		for r := 0; r < 400; r++ {
			tag := ""
			if r%50 == 0 {
				tag = "DEAL "
			}
			fmt.Fprintf(&sb, `<tr class="row"><td class="name">%sitem %d (round %d)</td><td class="price">$ %d</td></tr>`, tag, r, round, r*3+round)
		}
		sb.WriteString("</table></body></html>")
		return sb.String()
	}
	// Match-heavy, output-light: the regexp condition scans the text of
	// every row, but only a handful of rows are extracted — the shape of
	// a monitoring wrapper, and the work the shared match cache elides.
	prog := fmt.Sprintf(`
page(S, X) <- document(%q, S), subelem(S, .body, X)
row(S, X) <- page(_, S), subelem(S, (?.tr, [(elementtext, .*DEAL.*, regexp)]), X)
name(S, X) <- row(_, S), subelem(S, (?.td, [(class, name, exact)]), X)
price(S, X) <- row(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
`, url)
	design := &pib.Design{Auxiliary: map[string]bool{"document": true, "page": true}}
	run := func(b *testing.B, batched bool) {
		round := 0
		sim := web.New()
		sim.SetPage(url, func() string { return page(round) })
		var mc *elog.MatchCache
		var cache *fetchcache.Cache
		if batched {
			mc = elog.NewMatchCache()
			cache = fetchcache.New(4, time.Hour)
		}
		srcs := make([]*transform.WrapperSource, nWrappers)
		for i := range srcs {
			srcs[i] = &transform.WrapperSource{
				CompName: fmt.Sprintf("w%d", i),
				Fetcher:  sim,
				Wrapper:  lixto.MustCompile(prog, lixto.WithDesign(design)),
				Shared:   cache,
				Batch:    mc,
			}
		}
		pollRound := func() {
			// One freshness window per round: the batched fleet shares
			// one fetch+parse of the churned page.
			if cache != nil {
				cache.Flush()
			}
			for _, s := range srcs {
				if _, err := s.Poll(); err != nil {
					b.Fatal(err)
				}
			}
		}
		pollRound() // warm round: populate the match caches
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round++
			pollRound()
		}
	}
	b.Run("per-wrapper", func(b *testing.B) { run(b, false) })
	b.Run("batched", func(b *testing.B) { run(b, true) })
}

// BenchmarkWrapperToXML measures the full extract+transform path used by
// every application, on a large page.
func BenchmarkWrapperToXML(b *testing.B) {
	sim := web.New()
	web.NewBookSite(18, 500).Register(sim, "books.example.com")
	prog := elog.MustParse(`
page(S, X) <- document("books.example.com/bestsellers.html", S), subelem(S, .body, X)
book(S, X) <- page(_, S), subelem(S, (?.tr, [(class, book, exact)]), X)
title(S, X) <- book(_, S), subelem(S, (?.td, [(class, title, exact)]), X)
price(S, X) <- book(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
`)
	design := &pib.Design{Auxiliary: map[string]bool{"document": true, "page": true}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base, err := elog.NewEvaluator(sim).Run(prog)
		if err != nil {
			b.Fatal(err)
		}
		if out := design.Transform(base); len(out.Children) == 0 {
			b.Fatal("empty output")
		}
	}
}

// Differential guard: the root suite also re-checks one instance of the
// central equivalences so that `go test .` exercises the cross-engine
// contracts without descending into the internal packages.
func TestRootCrossEngineSanity(t *testing.T) {
	tr := htmlparse.Parse(`<body><table><tr><td>a</td></tr><tr><td><i>b</i></td></tr></table></body>`)
	// XPath three ways.
	q := xpath.MustParse("//tr[td[i]]")
	lin, err := xpath.EvalCore(q, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := xpath.EvalNaive(q, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	naive = tr.SortDocOrder(naive)
	prog, qpred, err := xpath.TranslateCore(q)
	if err != nil {
		t.Fatal(err)
	}
	viaTMNF, err := mdatalog.Query(prog, tr, qpred)
	if err != nil {
		t.Fatal(err)
	}
	if len(lin) != 1 || len(naive) != 1 || len(viaTMNF) != 1 || lin[0] != naive[0] || lin[0] != viaTMNF[0] {
		t.Fatalf("engines disagree: core=%v naive=%v tmnf=%v", lin, naive, viaTMNF)
	}
	// Monadic datalog two ways.
	p := datalog.MustParse(`q(X) :- label_td(X).`)
	fast, err := mdatalog.Eval(p, tr)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := mdatalog.EvalGeneric(p, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast["q"]) != 2 || len(slow["q"]) != 2 {
		t.Fatalf("datalog engines disagree: %v vs %v", fast["q"], slow["q"])
	}
}

// BenchmarkE22_WatchFanout: the encode-once delivery plane under a
// subscriber fleet. A wrapper whose document changes every tick is
// watched by 100 SSE subscribers; each iteration is one changed tick
// delivered end to end — encode once, fan the shared bytes out, and
// every subscriber holds the event. Compare with "poll": the same tick
// consumed by 100 conditional-GET pollers, i.e. 100 independent reads
// against the same snapshot.
func BenchmarkE22_WatchFanout(b *testing.B) {
	const nReaders = 100
	tick := 0
	out := &transform.Collector{CompName: "hot"}
	pipe := &churnBenchPipe{name: "hot", out: out, tick: &tick}
	deliver := func(h http.Handler) {
		tick++
		doc := xmlenc.NewElement("doc")
		doc.SetAttr("n", strconv.Itoa(tick))
		for i := 0; i < 50; i++ {
			doc.AppendTextElement("row", fmt.Sprintf("item %d of tick %d", i, tick))
		}
		if _, err := out.Process("", doc); err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/hot", nil))
		if rec.Code != 200 {
			b.Fatalf("GET /hot = %d", rec.Code)
		}
	}

	b.Run("watch", func(b *testing.B) {
		s := server.New(server.Config{WatchQueue: 16})
		if err := s.Register(pipe, time.Hour); err != nil {
			b.Fatal(err)
		}
		h := s.Handler()
		deliver(h)
		ts := httptest.NewServer(h)
		defer ts.Close()

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var received atomic.Int64
		var wg, ready sync.WaitGroup
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: nReaders}}
		for i := 0; i < nReaders; i++ {
			ready.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				first := true
				done := func() {
					if first {
						first = false
						ready.Done()
					}
				}
				defer done()
				req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/wrappers/hot/watch", nil)
				resp, err := client.Do(req)
				if err != nil {
					return
				}
				defer resp.Body.Close()
				br := bufio.NewReader(resp.Body)
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						return
					}
					if strings.HasPrefix(line, "event: result") {
						if first {
							done()
							continue
						}
						received.Add(1)
					}
				}
			}()
		}
		ready.Wait()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			base := received.Load()
			deliver(h)
			for received.Load() < base+nReaders {
				time.Sleep(100 * time.Microsecond)
			}
		}
		b.StopTimer()
		cancel()
		wg.Wait()
	})

	b.Run("poll", func(b *testing.B) {
		s := server.New(server.Config{})
		if err := s.Register(pipe, time.Hour); err != nil {
			b.Fatal(err)
		}
		h := s.Handler()
		deliver(h)
		for i := 0; i < b.N; i++ {
			deliver(h)
			var wg sync.WaitGroup
			for r := 0; r < nReaders; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("GET", "/hot", nil))
					if rec.Code != 200 {
						b.Error(rec.Code)
					}
				}()
			}
			wg.Wait()
		}
	})
}

// churnBenchPipe adapts the shared churning collector to the server's
// Pipeline interface for E22.
type churnBenchPipe struct {
	name string
	out  *transform.Collector
	tick *int
}

func (p *churnBenchPipe) PipeName() string             { return p.name }
func (p *churnBenchPipe) Output() *transform.Collector { return p.out }
func (p *churnBenchPipe) Tick() error                  { return nil }

// BenchmarkE24_ChurnIncremental: incremental extraction across document
// versions. A catalogue page churns a contiguous ~5% window of its
// sections per round while the rest stays byte-identical; one compiled
// wrapper is held across rounds. "full" re-matches every pattern from
// scratch each round, "incremental" reuses the content-addressed
// subtree matches of the clean sections and runs the matcher only over
// the dirty window. Both produce bit-identical instance bases (pinned
// by the differential tests); only the evaluation cost differs.
func BenchmarkE24_ChurnIncremental(b *testing.B) {
	const sections, rowsPer, window = 40, 20, 2
	const url = "churn.example.com/catalogue"
	progText := fmt.Sprintf(`
page(S, X)    <- document(%q, S), subelem(S, .body, X)
section(S, X) <- page(_, S), subelem(S, (.div, [(class, section, exact)]), X)
row(S, X)     <- section(_, S), subelem(S, (?.tr, [(elementtext, .*SALE.*, regexp)]), X)
name(S, X)    <- row(_, S), subelem(S, (?.td, [(class, name, exact)]), X)
`, url)
	run := func(b *testing.B, incremental bool) {
		version := make([]int, sections)
		round := 0
		page := func() string {
			var sb strings.Builder
			sb.WriteString("<html><body>")
			for s := 0; s < sections; s++ {
				v := version[s]
				sb.WriteString(`<div class="section"><table>`)
				for r := 0; r < rowsPer; r++ {
					tag := ""
					if r == v%rowsPer {
						tag = "SALE "
					}
					fmt.Fprintf(&sb, `<tr><td class="name">%sitem %d.%d v%d</td></tr>`, tag, s, r, v)
				}
				sb.WriteString("</table></div>")
			}
			sb.WriteString("</body></html>")
			return sb.String()
		}
		bump := func() {
			start := (round * window) % sections
			for i := 0; i < window; i++ {
				version[(start+i)%sections]++
			}
			round++
		}
		// A fresh compiled program per mode: the two modes must not share
		// fingerprint-keyed caches, or the second would answer its early
		// rounds (byte-identical to the first mode's) from the cache.
		prog := elog.MustCompile(elog.MustParse(progText))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			bump()
			tr := htmlparse.Parse(page())
			tr.Warm()
			fetch := elog.MapFetcher{url: tr}
			b.StartTimer()
			ev := elog.NewEvaluator(fetch)
			ev.Incremental = incremental
			if _, err := ev.RunCompiled(prog); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("full", func(b *testing.B) { run(b, false) })
	b.Run("incremental", func(b *testing.B) { run(b, true) })
}

// BenchmarkE25_DurableDelivery: the durable publish path. Each
// iteration is one changed tick plus the read that publishes it; with a
// result log attached the snapshot is not served until the delivery is
// appended to the WAL (durable before acknowledged). "mem" is the
// in-memory delivery plane, "wal-batch" appends with the background
// fsync batcher (the default), "wal-always" fsyncs inside every append.
func BenchmarkE25_DurableDelivery(b *testing.B) {
	run := func(b *testing.B, durable bool, mode resultlog.FsyncMode) {
		tick := 0
		out := &transform.Collector{CompName: "hot25"}
		pipe := &churnBenchPipe{name: "hot25", out: out, tick: &tick}
		cfg := server.Config{}
		if durable {
			store, err := resultlog.Open(b.TempDir(), resultlog.Options{Fsync: mode})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			cfg.ResultStore = store
		}
		s := server.New(cfg)
		if err := s.Register(pipe, time.Hour); err != nil {
			b.Fatal(err)
		}
		h := s.Handler()
		deliver := func() {
			tick++
			doc := xmlenc.NewElement("doc")
			doc.SetAttr("n", strconv.Itoa(tick))
			for i := 0; i < 50; i++ {
				doc.AppendTextElement("row", fmt.Sprintf("item %d of tick %d", i, tick))
			}
			if _, err := out.Process("", doc); err != nil {
				b.Fatal(err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/hot25", nil))
			if rec.Code != 200 {
				b.Fatalf("GET /hot25 = %d", rec.Code)
			}
		}
		deliver() // warm
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			deliver()
		}
	}
	b.Run("mem", func(b *testing.B) { run(b, false, 0) })
	b.Run("wal-batch", func(b *testing.B) { run(b, true, resultlog.FsyncBatch) })
	b.Run("wal-always", func(b *testing.B) { run(b, true, resultlog.FsyncAlways) })
}
