package elog_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/dom"
	"repro/internal/elog"
	"repro/internal/htmlparse"
	"repro/internal/pib"
	"repro/internal/xmlenc"
)

// satCase is one corpus entry of the set-at-a-time differential: a
// program and the consecutive document versions it wraps. versions is a
// constructor so that every evaluation gets trees of its own.
type satCase struct {
	name     string
	prog     string
	versions func() []elog.Fetcher
	// calls, when non-zero, is how many pattern-match calls (hits +
	// misses of CompiledProgram.Stats) one cold compiled evaluation of
	// the first version makes: the hand-written cases pin with it which
	// parents were matched together and which fell back to going alone.
	calls uint64
	// wantErr marks a case whose evaluation must fail, leaving the base
	// committed up to the failing parent.
	wantErr bool
}

func one(pages map[string]string) func() []elog.Fetcher {
	return func() []elog.Fetcher {
		m := elog.MapFetcher{}
		for url, src := range pages {
			m[url] = htmlparse.Parse(src)
		}
		return []elog.Fetcher{m}
	}
}

func catalogueVersions(sections, rows, window int, allSale bool) func() []elog.Fetcher {
	return func() []elog.Fetcher {
		cat := newCatalogue(sections, rows, window, allSale)
		return []elog.Fetcher{cat.next(), cat.next(), cat.next()}
	}
}

// unorderedTree builds <body><ul><li><b>..</b></li>…</ul></body> with
// every <b> appended after all the <li>, so NodeIDs are not in document
// order and no id range is a subtree.
func unorderedTree() []elog.Fetcher {
	t := dom.New(16)
	body := t.AppendChild(t.AddRoot("html"), "body")
	ul := t.AppendChild(body, "ul")
	var lis []dom.NodeID
	for i := 0; i < 4; i++ {
		lis = append(lis, t.AppendChild(ul, "li"))
	}
	for i, li := range lis {
		t.AppendText(t.AppendChild(li, "b"), fmt.Sprintf("item %d", i))
	}
	if t.DocOrdered() {
		panic("unorderedTree: ids are in document order")
	}
	return []elog.Fetcher{elog.MapFetcher{"d": t}}
}

const listProgram = `
item(S, X)  <- document("d", S), subelem(S, ?.li, X)
label(S, X) <- item(_, S), subelem(S, ?.b, X)
`

// satCases is the corpus: every examples/ wrapper, the benchmark's
// catalogue pages over three consecutive versions, and one hand-written
// case per shape that cannot be matched in one call and split by range.
func satCases() []satCase {
	var cases []satCase
	for _, ex := range exampleWrappers {
		cases = append(cases, satCase{name: "examples/" + ex.name, prog: ex.prog,
			versions: func() []elog.Fetcher { return []elog.Fetcher{ex.site()} }})
	}
	return append(cases,
		// The point of set-at-a-time application: one match call per rule
		// (5 rules), not one per parent instance (183 and 1 622). The
		// pinned counts below were 10, 4, 6, 11, 10, 6, 10 while every
		// wave ran a second, confirming fixpoint pass; runStratum now
		// skips a wave whose read sets have not grown, so only the
		// sequential waves (the entry rule, a self-recursive rule) are
		// applied again: here the entry rule, 5 + 1.
		satCase{name: "catalogue/60x40", prog: catalogueProgram, calls: 6, versions: catalogueVersions(60, 40, 3, false)},
		satCase{name: "catalogue/20x40-all-sale", prog: catalogueProgram, calls: 6, versions: catalogueVersions(20, 40, 1, true)},
		satCase{
			// Four disjoint <li> in document order: the shape that IS
			// batched. item: 1 call for the document, and 1 more in the
			// second pass (entry rules are sequential); label: 1 call for
			// the four items.
			name: "batched/disjoint-parents", prog: listProgram, calls: 3,
			versions: one(map[string]string{"d": `<ul><li><b>a</b></li><li><b>b</b></li><li><b>c</b></li><li><b>d</b></li></ul>`}),
		},
		satCase{
			// ?.li selects a nested <li> too: label's parents [li1, li2,
			// li3] have li2 ⊃ li3, so they split into the runs [li1, li2]
			// and [li3], and <b>z</b> belongs to li2 AND to li3. (The
			// nesting sits in the last item because there the interpreter
			// discovers ?.li in document order, as the bitset matcher
			// always does; see bitsetMatch.)
			name: "fallback/nested-parents", prog: listProgram, calls: 4,
			versions: one(map[string]string{"d": `<body><ul><li><b>x</b></li><li><b>y</b><ul><li><b>z</b></li></ul></li></ul></body>`}),
		},
		satCase{
			// Nested instances from a self-recursive pattern, which is
			// sequential (one call per parent and pass) and commits the
			// nested li2 ⊂ li1 last: label's parents [li1, li3, li2] do
			// not ascend and split into [li1, li3] and [li2] (2 calls, in
			// the first pass only; the entry rule 2, the recursive rule
			// 2 + 3).
			name: "fallback/recursive-pattern", calls: 9,
			prog: `
item(S, X)  <- document("d", S), subelem(S, .body.ul.li, X)
item(S, X)  <- item(_, S), subelem(S, .ul.li, X)
label(S, X) <- item(_, S), subelem(S, ?.b, X)
`,
			versions: one(map[string]string{"d": `<body><ul><li><b>x</b><ul><li><b>y</b></li></ul></li><li><b>z</b></li></ul></body>`}),
		},
		satCase{
			// p2 is extracted under the outer and under the inner <div>:
			// two row instances share one root, so word's parents
			// [p1, p2, p2] split into [p1, p2] and [p2]. box's nested
			// parents [outer, inner] go alone.
			name: "fallback/shared-root", calls: 6,
			prog: `
box(S, X)  <- document("d", S), subelem(S, ?.div, X)
row(S, X)  <- box(_, S), subelem(S, ?.p, X)
word(S, X) <- row(_, S), subelem(S, ?.b, X)
`,
			versions: one(map[string]string{"d": `<body><div><p><b>x</b></p><div><p><b>y</b></p></div></div></body>`}),
		},
		satCase{
			// The parent is a sequence instance: its members are matched
			// as children, which no id range expresses. cell's parents
			// (three disjoint tables) are batched.
			name: "fallback/sequence-parent", calls: 4,
			prog: `
tables(S, X) <- document("d", S), subsq(S, (.body, []), (.table, []), (.table, []), X)
record(S, X) <- tables(_, S), subelem(S, .table, X)
cell(S, X)   <- record(_, S), subelem(S, ?.td, X)
`,
			versions: one(map[string]string{"d": `<body><table><tr><td>1</td></tr></table><table><tr><td>2</td><td>3</td></tr></table><table><tr><td>4</td></tr></table><hr></body>`}),
		},
		satCase{
			// item's instances live in three crawled documents; label's
			// parents split into one run per document.
			name: "fallback/two-documents",
			prog: `
page(S, X)     <- document("p1", S), subelem(S, .body, X)
nextlink(S, X) <- page(_, S), subelem(S, ?.a, X)
nexturl(S, X)  <- nextlink(_, S), subatt(S, href, X)
nextdoc(S, X)  <- nexturl(_, S), getDocument(S, X)
page(S, X)     <- nextdoc(_, S), subelem(S, .body, X)
item(S, X)     <- page(_, S), subelem(S, ?.li, X)
label(S, X)    <- item(_, S), subelem(S, ?.b, X)
`,
			versions: one(map[string]string{
				"p1": `<body><ul><li><b>a</b></li><li><b>b</b></li></ul><a href="p2">next</a></body>`,
				"p2": `<body><ul><li><b>c</b></li><li><b>d</b></li><li><b>e</b></li></ul><a href="p3">next</a></body>`,
				"p3": `<body><ul><li><b>f</b></li><li><b>g</b></li></ul></body>`,
			}),
		},
		satCase{
			// NodeIDs out of document order: every parent goes alone
			// (2 calls for item, the entry rule; 4 for label).
			name: "fallback/not-doc-ordered", prog: listProgram, calls: 6, versions: unorderedTree,
		},
		satCase{
			// name, cheap and mark share a wave. Y is bound by a before
			// condition that is negated, so a row without an <i> passes it
			// and reaches isCurrency(Y) with Y unbound: cheap fails on the
			// third parent of four. name is committed for every row, cheap
			// and mark for none, exactly as one parent at a time.
			name: "fallback/error-mid-wave", wantErr: true,
			prog: `
row(S, X)   <- document("d", S), subelem(S, (?.div, [(class, r, exact)]), X)
name(S, X)  <- row(_, S), subelem(S, (?.span, [(class, n, exact)]), X)
cheap(S, X) <- row(_, S), subelem(S, (?.span, [(class, p, exact)]), X), notbefore(S, X, .i, 0, 100, Y, _), isCurrency(Y)
mark(S, X)  <- row(_, S), subelem(S, ?.i, X)
`,
			versions: one(map[string]string{"d": `<body>
<div class="r"><span class="n">a</span><i>$</i><span class="p">5</span></div>
<div class="r"><span class="n">b</span><i>$</i><span class="p">7</span></div>
<div class="r"><span class="n">c</span><span class="p">9</span></div>
<div class="r"><span class="n">d</span><span class="p">11</span></div></body>`}),
		},
	)
}

// TestSetAtATimeMatchesPerParent pins the set-at-a-time evaluator to
// the interpreter, which applies every rule one parent at a time: the
// instance base — ids, parents, commit order, everything Dump prints —
// must be identical at MaxConcurrency 1 and at GOMAXPROCS, with and
// without incremental matching, with and without a shared MatchCache,
// on every version of every corpus entry; and where evaluation fails,
// identical up to the failing parent, with the same error.
func TestSetAtATimeMatchesPerParent(t *testing.T) {
	for _, tc := range satCases() {
		t.Run(tc.name, func(t *testing.T) {
			prog := elog.MustParse(tc.prog)
			var want, wantErr []string
			for _, f := range tc.versions() {
				base, err := elog.NewEvaluator(f).Run(prog)
				if (err != nil) != tc.wantErr {
					t.Fatalf("interpreted run: err = %v, wantErr = %v", err, tc.wantErr)
				}
				if base.Count() < 2 {
					t.Fatalf("interpreted run extracted nothing:\n%s", base.Dump())
				}
				want, wantErr = append(want, base.Dump()), append(wantErr, fmt.Sprint(err))
			}
			for _, conc := range []int{1, max(2, runtime.GOMAXPROCS(0))} {
				for _, incremental := range []bool{false, true} {
					for _, attach := range []bool{false, true} {
						cp := elog.MustCompile(prog)
						var shared *elog.MatchCache
						if attach {
							shared = elog.NewMatchCache()
						}
						for v, f := range tc.versions() {
							ev := elog.NewEvaluator(f)
							ev.MaxConcurrency, ev.Incremental, ev.Shared = conc, incremental, shared
							base, err := ev.RunCompiled(cp)
							if fmt.Sprint(err) != wantErr[v] {
								t.Fatalf("conc=%d incremental=%v shared=%v v%d: err = %v, want %s", conc, incremental, attach, v, err, wantErr[v])
							}
							if got := base.Dump(); got != want[v] {
								t.Fatalf("conc=%d incremental=%v shared=%v v%d: base diverges from the interpreter:\n--- interpreted ---\n%s--- set-at-a-time ---\n%s",
									conc, incremental, attach, v, want[v], got)
							}
							if hits, misses := cp.Stats(); v == 0 && tc.calls != 0 && hits+misses != tc.calls {
								t.Errorf("conc=%d incremental=%v shared=%v: %d match calls, want %d", conc, incremental, attach, hits+misses, tc.calls)
							}
						}
					}
				}
			}
		})
	}
}

// TestEvalAllocBudget keeps the allocation saving from eroding: an
// incremental evaluation of the 20×40 all-SALE page at 5 % churn
// allocated 40 671 times before rules were applied set-at-a-time.
func TestEvalAllocBudget(t *testing.T) {
	cat := newCatalogue(20, 40, 1, true)
	cp := elog.MustCompile(elog.MustParse(catalogueProgram))
	shared := elog.NewMatchCache()
	run := func(f elog.Fetcher) {
		ev := elog.NewEvaluator(f)
		ev.Incremental, ev.Shared = true, shared
		if _, err := ev.RunCompiled(cp); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 5
	var pages []elog.Fetcher
	for i := 0; i <= rounds; i++ {
		pages = append(pages, cat.next())
	}
	run(pages[0])
	i := 0
	allocs := testing.AllocsPerRun(rounds-1, func() { i++; run(pages[i]) })
	if allocs > 15000 {
		t.Errorf("incremental RunCompiled: %.0f allocs per evaluation, budget 15000", allocs)
	}
	t.Logf("%.0f allocs per evaluation", allocs)
}

// TestOutputAllocBudget keeps the back half of the tick from eroding:
// on the 20×40 all-SALE page at 5 % churn (800 rows, 65 KB of XML, 40
// rows rebuilt) the incremental transform allocated 6 190 times a tick
// and the splice encoder 1 019 while every text node built a
// strings.Replacer, every instance copied and sorted its children, and
// the delta counters came from pib.Diff.
func TestOutputAllocBudget(t *testing.T) {
	cat := newCatalogue(20, 40, 1, true)
	cp := elog.MustCompile(elog.MustParse(catalogueProgram))
	design := &pib.Design{RootName: "catalogue", Auxiliary: map[string]bool{"document": true, "page": true, "section": true}}
	const rounds = 5
	var bases []*pib.Base
	for i := 0; i <= rounds; i++ {
		ev := elog.NewEvaluator(cat.next())
		ev.Incremental = true
		base, err := ev.RunCompiled(cp)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, base)
	}
	oc, enc := pib.NewOutputCache(), xmlenc.NewEncoder()
	docs := []*xmlenc.Node{design.TransformIncremental(bases[0], oc)}
	i := 0
	transform := testing.AllocsPerRun(rounds-1, func() { i++; docs = append(docs, design.TransformIncremental(bases[i], oc)) })
	if got, want := xmlenc.MarshalIndent(docs[i]), xmlenc.MarshalIndent(design.Transform(bases[i])); got != want || len(got) < 60<<10 {
		t.Fatalf("incremental output diverges from Transform (%d vs %d bytes)", len(got), len(want))
	}
	enc.MarshalIndentBytes(docs[0])
	i = 0
	encode := testing.AllocsPerRun(rounds-1, func() { i++; enc.MarshalIndentBytes(docs[i]) })
	if transform > 2000 {
		t.Errorf("TransformIncremental: %.0f allocs per tick, budget 2000", transform)
	}
	if encode > 250 {
		t.Errorf("Encoder.MarshalIndentBytes: %.0f allocs per tick, budget 250", encode)
	}
	t.Logf("transform %.0f, encode %.0f allocs per tick", transform, encode)
}
