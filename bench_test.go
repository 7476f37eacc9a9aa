// Package repro's root benchmark suite: one benchmark per claim of the
// PODS 2004 paper (E01–E17; E18, compiled Elog, is BenchmarkE08's three
// variants), each regenerating the measurement behind one figure or
// theorem. Where the claim is a scaling law the benchmark sweeps its
// parameter as sub-benchmarks and reports the per-unit column (ns/node,
// ns/rule, ns/step, ns/edge, ns/item) beside ns/op, so the shape reads
// off `go test -bench=. -run='^$' .`. Finer-grained sweeps live next to
// their packages (internal/*/..._test.go). The service's benchmark is
// lixtobench (`bash bench/run.sh`, see bench/README.md).
package repro_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/automata"
	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/dom"
	"repro/internal/elog"
	"repro/internal/htmlparse"
	"repro/internal/mdatalog"
	"repro/internal/pib"
	"repro/internal/visual"
	"repro/internal/web"
	"repro/internal/xpath"
)

// reportPer adds a series' per-unit column: the time per op divided by
// the units (nodes, rules, query steps, ...) one op processes.
func reportPer(b *testing.B, units int, unit string) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(units), "ns/"+unit)
}

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
// O(|P|·|dom|). The dom-N sweep holds the program and grows the tree
// (ns/node stays flat); the rules-N sweep holds the tree and grows the
// program (ns/rule stays flat).
func BenchmarkE02_Theorem24_LinearEvaluation(b *testing.B) {
	eval := func(b *testing.B, p *datalog.Program, tr *dom.Tree) {
		for i := 0; i < b.N; i++ {
			if _, err := mdatalog.Eval(p, tr); err != nil {
				b.Fatal(err)
			}
		}
	}
	p := mdatalog.ItalicProgram()
	for _, size := range []int{2000, 4000, 8000, 16000, 32000} {
		tr := dom.RandomTree(rand.New(rand.NewSource(2)), size, []string{"a", "i", "b"}, 6)
		b.Run(fmt.Sprintf("dom-%d", size), func(b *testing.B) {
			eval(b, p, tr)
			reportPer(b, tr.Size(), "node")
		})
	}
	tr := dom.RandomTree(rand.New(rand.NewSource(2)), 4000, []string{"a", "b", "c"}, 6)
	for _, n := range []int{8, 16, 32, 64, 128} {
		p := mdatalog.RandomProgram(rand.New(rand.NewSource(1)), 4, n, []string{"a", "b", "c"})
		b.Run(fmt.Sprintf("rules-%d", n), func(b *testing.B) {
			eval(b, p, tr)
			reportPer(b, n, "rule")
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
// match cache (the continuous-wrapping server path). This is E18.
func BenchmarkE08_Figure5_EbayWrapper(b *testing.B) {
	const items = 100
	sim := web.New()
	site := web.NewAuctionSite(8, items)
	site.PageSize = items
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
		if len(base.Instances("record")) != items {
			b.Fatalf("records = %d", len(base.Instances("record")))
		}
	}
	b.Run("interpreted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base, err := elog.NewEvaluator(fetch).Run(prog)
			checkRun(b, base, err)
		}
		reportPer(b, items, "item")
	})
	b.Run("compiled-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base, err := elog.NewEvaluator(fetch).RunCompiled(elog.MustCompile(prog))
			checkRun(b, base, err)
		}
		reportPer(b, items, "item")
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
		reportPer(b, items, "item")
	})
}

// deepDivs parses depth nested <div><span>x</span>…</div> levels: the
// document of the Core XPath sweeps.
func deepDivs(depth int) *dom.Tree {
	var sb strings.Builder
	sb.WriteString("<html><body>")
	for i := 0; i < depth; i++ {
		sb.WriteString("<div><span>x</span>")
	}
	for i := 0; i < depth; i++ {
		sb.WriteString("</div>")
	}
	sb.WriteString("</body></html>")
	return htmlparse.Parse(sb.String())
}

// BenchmarkE09_CoreXPathLinear: Core XPath in O(|D|·|Q|) combined
// complexity; over the dom-N sweep ns/node stays flat.
func BenchmarkE09_CoreXPathLinear(b *testing.B) {
	q := xpath.MustParse("//div[span and not(b)]//span")
	for _, depth := range []int{100, 200, 400, 800} {
		tr := deepDivs(depth)
		b.Run(fmt.Sprintf("dom-%d", tr.Size()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := xpath.EvalCore(q, tr, nil); err != nil {
					b.Fatal(err)
				}
			}
			reportPer(b, tr.Size(), "node")
		})
	}
}

// BenchmarkE10_Theorem41_NaiveVsPolynomial: //div//…//div queries of
// steps-k steps on a 14-deep div chain. The naive evaluator is
// exponential in |Q|; the linear (set-at-a-time) and full (context-value
// table) evaluators stay polynomial.
func BenchmarkE10_Theorem41_NaiveVsPolynomial(b *testing.B) {
	tr := deepDivs(14)
	for _, e := range []struct {
		name string
		eval func(*xpath.Path, *dom.Tree, []dom.NodeID) ([]dom.NodeID, error)
	}{
		{"naive-exponential", xpath.EvalNaive},
		{"linear", xpath.EvalCore},
		{"full-cvt", xpath.EvalFull},
	} {
		b.Run(e.name, func(b *testing.B) {
			for _, k := range []int{2, 3, 4, 5} {
				q := xpath.MustParse("//div" + strings.Repeat("//div", k-1))
				b.Run(fmt.Sprintf("steps-%d", k), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := e.eval(q, tr, nil); err != nil {
							b.Fatal(err)
						}
					}
					reportPer(b, k, "step")
				})
			}
		})
	}
}

// cqChain is a conjunctive query x0 -a1-> x1 -a2-> … -ak-> xk whose
// edge axes alternate between Child and alt.
func cqChain(k int, alt cq.Axis) *cq.Query {
	q := &cq.Query{NumVars: k + 1}
	for i := 0; i < k; i++ {
		ax := cq.Child
		if i%2 == 1 {
			ax = alt
		}
		q.Edges = append(q.Edges, cq.EdgeAtom{Axis: ax, X: cq.Var(i), Y: cq.Var(i + 1)})
	}
	return q
}

// BenchmarkE11_CQDichotomy: tractable vs NP-hard axis sets (Section 4,
// [18]) over edges-k chains. The NP-hard side mixes Child with Child+
// and, with an unsatisfiable last label, searches every embedding: its
// time blows up in |Q|. The poly side (Child with NextSibling*) stays
// polynomial. Sweeps over more axis sets in internal/cq.
func BenchmarkE11_CQDichotomy(b *testing.B) {
	tr := dom.RandomTree(rand.New(rand.NewSource(11)), 250, []string{"a"}, 2)
	hard := func(k int) *cq.Query {
		q := cqChain(k, cq.ChildPlus)
		q.Free = -1
		for i := 0; i < k; i++ {
			q.Labels = append(q.Labels, cq.LabelAtom{X: cq.Var(i), Label: "a"})
		}
		q.Labels = append(q.Labels, cq.LabelAtom{X: cq.Var(k), Label: "zz"}) // unsatisfiable: full search
		return q
	}
	easy := func(k int) *cq.Query { return cqChain(k, cq.NextSiblingStar) }
	for _, side := range []struct {
		name  string
		query func(int) *cq.Query
		eval  func(*cq.Query, *dom.Tree) ([]dom.NodeID, error)
	}{
		{"nphard-side", hard, cq.EvalGeneric},
		{"poly-side", easy, cq.EvalAcyclic},
	} {
		b.Run(side.name, func(b *testing.B) {
			for _, k := range []int{2, 4, 6, 8} {
				q := side.query(k)
				b.Run(fmt.Sprintf("edges-%d", k), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := side.eval(q, tr); err != nil {
							b.Fatal(err)
						}
					}
					reportPer(b, k, "edge")
				})
			}
		})
	}
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

// TestFigure5NoisyListing pins the Figure 5 wrapper on listings with
// navigation clutter and ads between the records: every record, item
// description, price and bid count is extracted, nothing more, and each
// description is its own item's. It runs the compiled program (the
// seed interpreter, which the differential tests pin it to, takes
// seconds on the 200-item page).
func TestFigure5NoisyListing(t *testing.T) {
	prog := elog.MustCompile(elog.MustParse(ebayFigure5))
	for _, n := range []int{50, 200} {
		site := web.NewAuctionSite(8, n)
		site.PageSize = n
		site.Noise = true
		sim := web.New()
		site.Register(sim, "www.ebay.com")
		base, err := elog.NewEvaluator(sim).RunCompiled(prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, pat := range []string{"record", "itemdes", "price", "bids"} {
			if got := len(base.Instances(pat)); got != n {
				t.Errorf("%d items: %d %s instances, want %d", n, got, pat, n)
			}
		}
		correct := 0
		for i, in := range base.Instances("itemdes") {
			if i < len(site.Items) && strings.TrimSpace(in.TextContent()) == site.Items[i].Description {
				correct++
			}
		}
		if correct != n {
			t.Errorf("%d items: %d descriptions match their item, want %d", n, correct, n)
		}
	}
}
