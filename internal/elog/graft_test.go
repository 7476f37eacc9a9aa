package elog_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/elog"
	"repro/internal/htmlparse"
	"repro/internal/pib"
	"repro/internal/xmlenc"
)

// localProgram exercises every construct a parent-local rule may use
// under blocks of a page: subsq, subtext and subatt extraction,
// before/after, concept and comparison conditions, and a specialisation
// with contains and firstsubtree.
const localProgram = `
p(S, X) <- document("d", S), subelem(S, .body, X)
blk(S, X) <- p(_, S), subelem(S, .div, X)
run(S, X) <- blk(_, S), subsq(S, (.div, []), (.h1, []), (.hr, []), X)
num(S, X) <- blk(_, S), subtext(S, [0-9]+, X)
cls(S, X) <- blk(_, S), subatt(S, class, X)
cell(S, X) <- blk(_, S), subelem(S, ?.td, X), before(S, X, (?.th, []), 0, 3, Y, _), isCurrency(Y), after(S, X, (?.td, []), 0, 9, _, _)
big(S, X) <- cell(S, X), contains(X, (?.b, []), _), >(X, "10"), firstsubtree(S, X)
`

// localPage renders blocks of the page localProgram wraps; gen[i] is
// the version that last rewrote block i.
func localPage(gen []int) string {
	var sb strings.Builder
	sb.WriteString("<html><body>")
	for i, g := range gen {
		fmt.Fprintf(&sb, `<div class="b%d"><div><h1>T%d</h1><p>%d apples</p><hr></div><table><tr><th>EUR</th><td>%d <b>x</b></td><td>%d</td><td>%d <b>y</b></td></tr></table></div>`,
			g%3, i, g, 8+g%5, i, 12+g%4)
	}
	sb.WriteString("</body></html>")
	return sb.String()
}

// TestMaintainedMatchesCold carries one base through RunMaintained over
// twenty versions of a page whose blocks are rewritten one or two at a
// time: every version's base must Dump as a cold RunCompiled's, and the
// unchanged blocks must be grafted (the program is parent-local
// throughout, so nothing falls back).
func TestMaintainedMatchesCold(t *testing.T) {
	cp := elog.MustCompile(elog.MustParse(localProgram))
	ev := elog.NewEvaluator(nil)
	rng := rand.New(rand.NewSource(1))
	gen := make([]int, 12)
	var prev *pib.Base
	for v := 1; v <= 20; v++ {
		for i := 0; i < 1+rng.Intn(2); i++ {
			gen[rng.Intn(len(gen))] = v
		}
		tree := htmlparse.Parse(localPage(gen))
		tree.Warm()
		fetch := elog.MapFetcher{"d": tree}
		want, err := elog.NewEvaluator(fetch).RunCompiled(elog.MustCompile(elog.MustParse(localProgram)))
		if err != nil {
			t.Fatal(err)
		}
		ev.Fetcher = fetch
		if prev, err = ev.RunMaintained(cp, prev); err != nil {
			t.Fatal(err)
		}
		if got := prev.Dump(); got != want.Dump() {
			t.Fatalf("v%d: maintained base diverges:\n--- cold ---\n%s--- maintained ---\n%s", v, want.Dump(), got)
		}
		for _, pat := range []string{"run", "num", "cls", "cell", "big"} {
			if len(want.Instances(pat)) == 0 {
				t.Fatalf("v%d: no %s instances (vacuous)", v, pat)
			}
		}
	}
	if st := cp.Incremental(); st.InstancesGrafted == 0 || st.EvalFallbacks != 0 {
		t.Errorf("instances_grafted = %d, eval_fallbacks = %d", st.InstancesGrafted, st.EvalFallbacks)
	}
}

// TestGraftEligibility pins which wrappers a maintained evaluation
// grafts throughout and, for the others, the first rule and construct
// that sends them to the full path (elog's fallback report): every
// examples/ wrapper, every Section 6 application wrapper, the benchmark
// catalogue program, and one handwritten program per fallback reason.
// A change that drops a wrapper onto the full path shows up here.
func TestGraftEligibility(t *testing.T) {
	want := map[string]string{
		"examples/quickstart":               "",
		"examples/ebay-crawl":               "rule 5 (bids): pattern reference price(_, Y)",
		"examples/flightinfo":               "",
		"examples/pressclipping":            "",
		"examples/nowplaying-chart":         "",
		"examples/nowplaying-lyrics-crawl":  "rule 4 (songpage): getDocument",
		"examples/visualbuilder":            "",
		"apps/nowplaying/wrap-radio-wien":   "",
		"apps/nowplaying/wrap-oe3":          "",
		"apps/nowplaying/wrap-fm4":          "",
		"apps/nowplaying/wrap-radio-noe":    "",
		"apps/nowplaying/wrap-radio-paris":  "",
		"apps/nowplaying/wrap-radio-london": "",
		"apps/nowplaying/wrap-radio-rome":   "",
		"apps/nowplaying/wrap-radio-berlin": "",
		"apps/nowplaying/wrap-top40":        "",
		"apps/nowplaying/wrap-billboard":    "",
		"apps/nowplaying/wrap-airplay":      "",
		"apps/nowplaying/wrap-dance":        "",
		"apps/nowplaying/wrap-indie":        "",
		"apps/nowplaying/wrap-lyrics":       "rule 4 (songpage): getDocument",
		"apps/flightinfo/wrap-flights":      "",
		"apps/pressclipping/wrap-news":      "",
		"apps/pressclipping/wrap-quotes":    "",
		"apps/powertrading/wrap-spot":       "",
		"apps/powertrading/wrap-weather":    "",
		"apps/viticulture/wrap-wachau":      "",
		"apps/viticulture/wrap-kamptal":     "",
		"apps/automotive/wrap-rfq":          "",
		"apps/automotive/wrap-prices":       "",
		"catalogue":                         "",
		"handwritten/contained":             "",
		"handwritten/negated-reference":     "rule 3 (b): pattern reference not a(_, X)",
		"handwritten/self-recursive":        "rule 2 (p): self-recursive",
		"handwritten/specialised-context":   "rule 3 (first): before(S, X, (?.h1, []), 0, 9, _, _) in a specialisation",
		"handwritten/shared-head":           "rule 2 (item): shares head and parent with rule 3",
	}
	progs := map[string]*elog.Program{
		"catalogue":              elog.MustParse(catalogueProgram),
		"examples/visualbuilder": visualBuilderSession(t).Program(),
		"handwritten/contained":  elog.MustParse(localProgram),
		"handwritten/negated-reference": elog.MustParse(`
p(S, X) <- document("d", S), subelem(S, .body, X)
a(S, X) <- p(_, S), subelem(S, ?.a, X)
b(S, X) <- p(_, S), subelem(S, ?.*, X), not a(_, X)
`),
		"handwritten/self-recursive": elog.MustParse(`
p(S, X) <- document("d", S), subelem(S, .body, X)
p(S, X) <- p(_, S), subelem(S, .div, X)
`),
		"handwritten/specialised-context": elog.MustParse(`
p(S, X) <- document("d", S), subelem(S, .body, X)
td(S, X) <- p(_, S), subelem(S, ?.td, X)
first(S, X) <- td(S, X), before(S, X, (?.h1, []), 0, 9, _, _)
`),
		"handwritten/shared-head": elog.MustParse(`
p(S, X) <- document("d", S), subelem(S, .body, X)
item(S, X) <- p(_, S), subelem(S, ?.li, X)
item(S, X) <- p(_, S), subelem(S, ?.td, X), not p(_, X)
`),
	}
	for _, ex := range exampleWrappers {
		progs["examples/"+ex.name] = elog.MustParse(ex.prog)
	}
	for _, c := range appWrappers(t) {
		progs[c.name] = c.prog
	}
	for name, p := range progs {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: not in the table", name)
			continue
		}
		if got := elog.MustCompile(p).NonLocal(); got != w {
			t.Errorf("%s: fallback report %q, want %q", name, got, w)
		}
	}
	if len(progs) != len(want) {
		t.Errorf("table lists %d wrappers, %d ran", len(want), len(progs))
	}
}

// TestMaintainedFallbackOutput keeps a block's derivations from being
// taken as unchanged because the block is: the block pairs with its
// counterpart (it is the parent of list, which grafts), but pick
// depends, through a negated pattern reference, on the page's first
// item, so when a block is prepended an untouched block picks another
// item, and the transform may not reuse the untouched block's old
// output. Nor may pick's second rule graft, although it is local on
// its own: what it derives deduplicates against the first rule's. Every version's maintained base must Dump as a cold
// evaluation's and render through the output cache byte for byte as
// Transform does.
func TestMaintainedFallbackOutput(t *testing.T) {
	const prog = `
p(S, X) <- document("d", S), subelem(S, .body, X)
blk(S, X) <- p(_, S), subelem(S, .div, X)
top(S, X) <- p(_, S), subelem(S, ?.li, X), firstsubtree(S, X)
pick(S, X) <- blk(_, S), subelem(S, ?.li, X), not top(_, X), firstsubtree(S, X)
pick(S, X) <- blk(_, S), subelem(S, (?.li, [(elementtext, [bm].*, regexp)]), X)
list(S, X) <- blk(_, S), subelem(S, .ul, X)
`
	cp := elog.MustCompile(elog.MustParse(prog))
	ev := elog.NewEvaluator(nil)
	d := &pib.Design{Auxiliary: map[string]bool{"document": true, "p": true, "top": true}}
	oc := pib.NewOutputCache()
	blocks := []string{"<div><ul><li>a</li><li>b</li></ul></div>", "<div><ul><li>c</li><li>d</li></ul></div>"}
	for v := 0; v < 6; v++ {
		if v%2 == 1 {
			blocks = append([]string{fmt.Sprintf("<div><ul><li>n%d</li><li>m%d</li></ul></div>", v, v)}, blocks...)
		} else if v > 0 {
			blocks = blocks[1:]
		}
		fetch := elog.MapFetcher{"d": htmlparse.Parse("<html><body>" + strings.Join(blocks, "") + "</body></html>")}
		want, err := elog.NewEvaluator(fetch).RunCompiled(elog.MustCompile(elog.MustParse(prog)))
		if err != nil {
			t.Fatal(err)
		}
		ev.Fetcher = fetch
		got, err := ev.RunMaintained(cp, oc.Base())
		if err != nil {
			t.Fatal(err)
		}
		if got.Dump() != want.Dump() {
			t.Fatalf("v%d: maintained base diverges:\n--- cold ---\n%s--- maintained ---\n%s", v, want.Dump(), got.Dump())
		}
		if inc, plain := xmlenc.MarshalIndent(d.TransformIncremental(got, oc)), xmlenc.MarshalIndent(d.Transform(want)); inc != plain {
			t.Fatalf("v%d: output diverges:\n%s\nvs\n%s", v, inc, plain)
		}
	}
	if st := cp.Incremental(); st.EvalFallbacks == 0 || st.InstancesGrafted == 0 {
		t.Errorf("want fallbacks (a pattern reference) and grafts (list): %+v", st)
	}
}

// TestMaintainedForeignBase: a previous base built under another
// program (here the same rules in another order, so that rule numbers
// name other rules) or another concept base is not grafted from; the
// evaluation takes the full path, counted as a fallback.
func TestMaintainedForeignBase(t *testing.T) {
	rules := strings.Split(strings.TrimSpace(localProgram), "\n")
	rules[2], rules[3], rules[4] = rules[4], rules[2], rules[3]
	other := elog.MustCompile(elog.MustParse(strings.Join(rules, "\n")))
	cp := elog.MustCompile(elog.MustParse(localProgram))
	gen := []int{1, 2, 3, 4}
	fetch := elog.MapFetcher{"d": htmlparse.Parse(localPage(gen))}
	ev := elog.NewEvaluator(fetch)
	prevOther, err := ev.RunCompiled(other)
	if err != nil {
		t.Fatal(err)
	}
	prevConcepts, err := elog.NewEvaluator(fetch).RunCompiled(cp) // its own concept base
	if err != nil {
		t.Fatal(err)
	}
	gen[1] = 5
	fetch = elog.MapFetcher{"d": htmlparse.Parse(localPage(gen))}
	want, err := elog.NewEvaluator(fetch).RunCompiled(elog.MustCompile(elog.MustParse(localProgram)))
	if err != nil {
		t.Fatal(err)
	}
	ev.Fetcher = fetch
	for i, prev := range []*pib.Base{prevOther, prevConcepts} {
		got, err := ev.RunMaintained(cp, prev)
		if err != nil {
			t.Fatal(err)
		}
		if got.Dump() != want.Dump() {
			t.Fatalf("case %d: base diverges:\n--- cold ---\n%s--- maintained ---\n%s", i, want.Dump(), got.Dump())
		}
		if st := cp.Incremental(); st.InstancesGrafted != 0 || st.EvalFallbacks != uint64(i+1) {
			t.Fatalf("case %d: %+v, want no grafts and a fallback each", i, st)
		}
	}
}
