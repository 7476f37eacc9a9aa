package elog_test

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/elog"
	"repro/internal/transform"
)

// fixpointCase is one program of TestNoConfirmingPass with the web it
// wraps; nonEmpty names a pattern that must end up with instances, so a
// hand-written case cannot pass by extracting nothing.
type fixpointCase struct {
	name     string
	prog     *elog.Program
	fetcher  func() elog.Fetcher
	nonEmpty string
}

// appWrappers lists every wrapper source of the Section 6 applications.
func appWrappers(t *testing.T) []fixpointCase {
	var out []fixpointCase
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	add := func(app string, eng *transform.Engine) {
		for _, comp := range eng.Components() {
			if src, ok := comp.(*transform.WrapperSource); ok {
				out = append(out, fixpointCase{name: "apps/" + app + "/" + src.CompName, prog: src.Wrapper.Program(),
					fetcher: func() elog.Fetcher { return src.Fetcher }})
			}
		}
	}
	np, err := apps.NewNowPlaying(17)
	check(err)
	add("nowplaying", np.Engine)
	fi, err := apps.NewFlightInfo(11, []apps.Subscription{{Number: "OS105"}})
	check(err)
	add("flightinfo", fi.Engine)
	pc, err := apps.NewPressClipping(5)
	check(err)
	add("pressclipping", pc.Engine)
	pt, err := apps.NewPowerTrading(9)
	check(err)
	add("powertrading", pt.Engine)
	vi, err := apps.NewViticulture([]string{"wachau", "kamptal"})
	check(err)
	add("viticulture", vi.Engine)
	am, err := apps.NewAutomotiveMonitor(23)
	check(err)
	add("automotive", am.Engine)
	return out
}

// TestNoConfirmingPass pins runStratum's wave skipping to the fixpoint
// it replaced. The reference (RunNaive, in export_test.go) re-applies
// every wave until a whole pass commits nothing; Run and RunCompiled
// apply a non-sequential wave again only when an instance set it reads
// has grown. Both must build the same base — ids, parents and commit
// order, everything Dump prints — at MaxConcurrency 1 and GOMAXPROCS, on
// every examples/ wrapper, every Section 6 application wrapper, the
// benchmark's catalogue pages, and two programs written to need more
// than one pass over a non-sequential wave.
func TestNoConfirmingPass(t *testing.T) {
	var cases []fixpointCase
	for _, ex := range exampleWrappers {
		cases = append(cases, fixpointCase{name: "examples/" + ex.name, prog: elog.MustParse(ex.prog),
			fetcher: func() elog.Fetcher { return ex.site() }})
	}
	cases = append(cases, appWrappers(t)...)
	for _, c := range []struct {
		name                   string
		sections, rows, window int
		allSale                bool
	}{{"catalogue/60x40", 60, 40, 3, false}, {"catalogue/20x40-all-sale", 20, 40, 1, true}} {
		cases = append(cases, fixpointCase{name: c.name, prog: elog.MustParse(catalogueProgram), nonEmpty: "price",
			fetcher: func() elog.Fetcher { return newCatalogue(c.sections, c.rows, c.window, c.allSale).next() }})
	}
	nested := one(map[string]string{"d": `<body><ul><li><b>1</b><ul><li><b>2</b><ul><li><b>3</b><ul><li><b>4</b></li></ul></li></ul></li><li><b>2'</b></li></ul></li></ul></body>`})
	cases = append(cases,
		fixpointCase{
			// item and list feed each other through two non-sequential
			// waves, neither self-recursive: each pass descends one level
			// of nesting, so both waves run four times before their read
			// sets stop growing.
			name: "handwritten/mutual-recursion", nonEmpty: "label",
			prog: elog.MustParse(`
item(S, X)  <- document("d", S), subelem(S, .body.ul.li, X)
list(S, X)  <- item(_, S), subelem(S, .ul, X)
item(S, X)  <- list(_, S), subelem(S, .li, X)
label(S, X) <- item(_, S), subelem(S, .b, X)
`),
			fetcher: func() elog.Fetcher { return nested()[0] },
		},
		fixpointCase{
			// marked's pattern reference star(_, X) points at a pattern a
			// LATER wave writes: the first pass finds star empty and
			// commits no marked; the wave must run again because star
			// grew, although its parent pattern row did not.
			name: "handwritten/late-pattern-reference", nonEmpty: "marked",
			prog: elog.MustParse(`
row(S, X)    <- document("d", S), subelem(S, ?.tr, X)
marked(S, X) <- row(_, S), subelem(S, ?.td, X), star(_, X)
cell(S, X)   <- row(_, S), subelem(S, ?.td, X)
star(S, X)   <- cell(S, X), contains(X, ?.b, _)
`),
			fetcher: func() elog.Fetcher {
				return one(map[string]string{"d": `<table><tr><td><b>a</b></td><td>b</td></tr><tr><td>c</td><td><b>d</b></td></tr></table>`})()[0]
			},
		})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, conc := range []int{1, max(2, runtime.GOMAXPROCS(0))} {
				eval := func() *elog.Evaluator {
					ev := elog.NewEvaluator(tc.fetcher())
					ev.MaxConcurrency = conc
					return ev
				}
				for _, compiled := range []bool{false, true} {
					var cp, cpRef *elog.CompiledProgram
					if compiled {
						cp, cpRef = elog.MustCompile(tc.prog), elog.MustCompile(tc.prog)
					}
					want, err := eval().RunNaive(tc.prog, cpRef)
					if err != nil {
						t.Fatalf("conc=%d compiled=%v reference: %v", conc, compiled, err)
					}
					got, err := eval().Run(tc.prog)
					if compiled {
						got, err = eval().RunCompiled(cp)
					}
					if err != nil {
						t.Fatalf("conc=%d compiled=%v: %v", conc, compiled, err)
					}
					if got.Dump() != want.Dump() {
						t.Errorf("conc=%d compiled=%v: base diverges from the re-run-everything fixpoint:\n--- reference ---\n%s--- got ---\n%s",
							conc, compiled, want.Dump(), got.Dump())
					}
					if want.Count() < 2 || tc.nonEmpty != "" && len(got.Instances(tc.nonEmpty)) == 0 {
						t.Errorf("conc=%d compiled=%v: nothing extracted for %q:\n%s", conc, compiled, tc.nonEmpty, got.Dump())
					}
				}
			}
		})
	}

	// The saving itself: five rules, one match call each, plus the entry
	// rule's second application (sequential waves run on every pass).
	// The reference makes one call per rule and pass.
	for _, allSale := range []bool{false, true} {
		cp, cpRef := elog.MustCompile(elog.MustParse(catalogueProgram)), elog.MustCompile(elog.MustParse(catalogueProgram))
		if _, err := elog.NewEvaluator(newCatalogue(20, 40, 1, allSale).next()).RunCompiled(cp); err != nil {
			t.Fatal(err)
		}
		if _, err := elog.NewEvaluator(newCatalogue(20, 40, 1, allSale).next()).RunNaive(cpRef.Program, cpRef); err != nil {
			t.Fatal(err)
		}
		hits, misses := cp.Stats()
		refHits, refMisses := cpRef.Stats()
		if hits+misses != 6 || refHits+refMisses != 10 {
			t.Errorf("allSale=%v: %d match calls (reference %d), want 6 (10)", allSale, hits+misses, refHits+refMisses)
		}
	}
}
