package elog

import (
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/htmlparse"
	"repro/internal/pib"
	"repro/internal/xmlenc"
)

// ebayPage builds an eBay-style auction listing page with the structure
// Figure 5's wrapper expects: a header table containing "item", one
// table per offered item, and a closing <hr>.
func ebayPage() string {
	var b strings.Builder
	b.WriteString(`<html><body>`)
	b.WriteString(`<h1>eBay Listings</h1>`)
	b.WriteString(`<table><tr><td><b>item</b></td><td>price</td><td>bids</td></tr></table>`)
	items := []struct {
		des, price, bids string
	}{
		{"Vintage Camera", "$ 120.50", "12 bids"},
		{"Mountain Bike", "$ 85.00", "3 bids"},
		{"Antique Clock", "Euro 45.00", "7 bids"},
	}
	for _, it := range items {
		b.WriteString(`<table><tr>`)
		b.WriteString(`<td><a href="item.html">` + it.des + `</a></td>`)
		b.WriteString(`<td>` + it.price + `</td>`)
		b.WriteString(`<td>` + it.bids + `</td>`)
		b.WriteString(`</tr></table>`)
	}
	b.WriteString(`<hr><p>footer</p>`)
	b.WriteString(`</body></html>`)
	return b.String()
}

// ebayProgram is the Elog extraction program of Figure 5, normalized to
// a consistent pattern name (the paper prints "tablesq" in the first
// head but "tableseq" elsewhere) and to this implementation's element
// path syntax (the bids rule descends with ?.td, since td cells are not
// direct children of the record table).
const ebayProgram = `
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

func runEbay(t *testing.T) *pib.Base {
	t.Helper()
	prog, err := Parse(ebayProgram)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ev := NewEvaluator(MapFetcher{"www.ebay.com/": htmlparse.Parse(ebayPage())})
	base, err := ev.Run(prog)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return base
}

func TestE8EbayFigure5(t *testing.T) {
	base := runEbay(t)
	if got := len(base.Instances("tableseq")); got != 1 {
		t.Fatalf("tableseq instances = %d", got)
	}
	seq := base.Instances("tableseq")[0]
	if seq.Kind != pib.SequenceInstance || len(seq.Nodes) != 3 {
		t.Fatalf("tableseq = %v nodes (kind %v)", len(seq.Nodes), seq.Kind)
	}
	if got := len(base.Instances("record")); got != 3 {
		t.Fatalf("records = %d", got)
	}
	des := base.Instances("itemdes")
	if len(des) != 3 {
		t.Fatalf("itemdes = %d", len(des))
	}
	wantDes := []string{"Vintage Camera", "Mountain Bike", "Antique Clock"}
	for i, in := range des {
		if got := strings.TrimSpace(in.TextContent()); got != wantDes[i] {
			t.Errorf("itemdes[%d] = %q, want %q", i, got, wantDes[i])
		}
	}
	prices := base.Instances("price")
	if len(prices) != 3 {
		t.Fatalf("prices = %d: %v", len(prices), prices)
	}
	wantPrice := []string{"$ 120.50", "$ 85.00", "Euro 45.00"}
	for i, in := range prices {
		if got := strings.TrimSpace(in.TextContent()); got != wantPrice[i] {
			t.Errorf("price[%d] = %q, want %q", i, got, wantPrice[i])
		}
	}
	bids := base.Instances("bids")
	if len(bids) != 3 {
		t.Fatalf("bids = %d", len(bids))
	}
	for i, in := range bids {
		if got := strings.TrimSpace(in.TextContent()); !strings.HasSuffix(got, "bids") {
			t.Errorf("bids[%d] = %q", i, got)
		}
	}
	curr := base.Instances("currency")
	if len(curr) != 3 {
		t.Fatalf("currency = %d", len(curr))
	}
	wantCur := []string{"$", "$", "Euro"}
	for i, in := range curr {
		if in.Text != wantCur[i] {
			t.Errorf("currency[%d] = %q, want %q", i, in.Text, wantCur[i])
		}
	}
}

func TestEbayXMLOutput(t *testing.T) {
	base := runEbay(t)
	design := &pib.Design{
		Auxiliary: map[string]bool{"document": true, "tableseq": true},
		RootName:  "ebay",
	}
	xml := xmlenc.MarshalIndent(design.Transform(base))
	if strings.Count(xml, "<record>") != 3 {
		t.Errorf("xml records:\n%s", xml)
	}
	if !strings.Contains(xml, "<itemdes>Vintage Camera</itemdes>") {
		t.Errorf("missing itemdes:\n%s", xml)
	}
	if !strings.Contains(xml, "<currency>Euro</currency>") {
		t.Errorf("missing currency:\n%s", xml)
	}
	// tableseq is auxiliary: records must sit directly under ebay.
	if strings.Contains(xml, "<tableseq>") {
		t.Errorf("auxiliary pattern leaked:\n%s", xml)
	}
}

func TestEbayRobustnessUnderPerturbation(t *testing.T) {
	// Layout noise the paper's landmark-based approach should tolerate:
	// extra navigation junk before the header, different number of
	// items, whitespace.
	var b strings.Builder
	b.WriteString(`<html><body><div><a href="/">home</a> | <a href="/sell">sell</a></div>`)
	b.WriteString(`<p>Welcome!</p>`)
	b.WriteString(`<table><tr><td>item</td></tr></table>`)
	for i := 0; i < 5; i++ {
		b.WriteString(`<table><tr><td><a href="i.html">Item ` + string(rune('A'+i)) + `</a></td><td>$ 10.00</td><td>1 bid</td></tr></table>`)
	}
	b.WriteString(`<hr></body></html>`)
	prog := MustParse(ebayProgram)
	ev := NewEvaluator(MapFetcher{"www.ebay.com/": htmlparse.Parse(b.String())})
	base, err := ev.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(base.Instances("record")); got != 5 {
		t.Fatalf("records = %d", got)
	}
	if got := len(base.Instances("itemdes")); got != 5 {
		t.Fatalf("itemdes = %d", got)
	}
}

func TestParseRejects(t *testing.T) {
	for _, src := range []string{
		"",
		"p(S, X) <- q(_, S), subelem(S, .a, X)", // undefined parent q
		"p(S, X) <- document(\"u\", S)",         // no extraction
		"p(S) <- document(\"u\", S), subelem(S, .a, X)",                      // head not binary
		"p(S, X) <- document(\"u\", S), subelem(S, .a, X), subtext(S, x, X)", // two extractions
		"p(S, X) <- document(\"u\", S), subelem(S, .a, X), frobnicate(S)",    // unknown condition
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestSpecializationRule(t *testing.T) {
	// Footnote 6: greentable(S, X) <- table(S, X), contains(...).
	src := `
tbl(S, X) <- document("d", S), subelem(S, ?.table, X)
greentable(S, X) <- tbl(S, X), contains(X, (?.td, [(color, green, exact)]), _)
`
	doc := htmlparse.Parse(`<body>
<table><tr><td color="green">a</td></tr></table>
<table><tr><td>b</td></tr></table>
</body>`)
	base, err := NewEvaluator(MapFetcher{"d": doc}).Run(MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Instances("tbl")) != 2 {
		t.Fatalf("tbl = %d", len(base.Instances("tbl")))
	}
	if len(base.Instances("greentable")) != 1 {
		t.Fatalf("greentable = %d", len(base.Instances("greentable")))
	}
}

func TestNegatedConditions(t *testing.T) {
	src := `
row(S, X) <- document("d", S), subelem(S, ?.tr, X)
plain(S, X) <- row(S, X), notcontains(X, ?.b, _)
`
	doc := htmlparse.Parse(`<table><tr><td><b>bold</b></td></tr><tr><td>plain</td></tr></table>`)
	base, err := NewEvaluator(MapFetcher{"d": doc}).Run(MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Instances("plain")) != 1 {
		t.Fatalf("plain = %d", len(base.Instances("plain")))
	}
	if got := strings.TrimSpace(base.Instances("plain")[0].TextContent()); got != "plain" {
		t.Errorf("plain text = %q", got)
	}
}

func TestSubattAndComparison(t *testing.T) {
	src := `
link(S, X) <- document("d", S), subelem(S, ?.a, X)
url(S, X) <- link(_, S), subatt(S, href, X)
`
	doc := htmlparse.Parse(`<p><a href="x.html">x</a><a href="y.html">y</a></p>`)
	base, err := NewEvaluator(MapFetcher{"d": doc}).Run(MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	urls := base.Instances("url")
	if len(urls) != 2 || urls[0].Text != "x.html" || urls[1].Text != "y.html" {
		t.Fatalf("urls = %v", urls)
	}
}

func TestCrawlingGetDocument(t *testing.T) {
	// Recursive wrapping across pages: follow "next" links.
	src := `
page(S, X) <- document("p1", S), subelem(S, .body, X)
nextlink(S, X) <- page(_, S), subelem(S, ?.a, X)
nexturl(S, X) <- nextlink(_, S), subatt(S, href, X)
nextdoc(S, X) <- nexturl(_, S), getDocument(S, X)
page(S, X) <- nextdoc(_, S), subelem(S, .body, X)
title(S, X) <- page(_, S), subelem(S, ?.h1, X)
`
	fetcher := MapFetcher{
		"p1": htmlparse.Parse(`<body><h1>One</h1><a href="p2">next</a></body>`),
		"p2": htmlparse.Parse(`<body><h1>Two</h1><a href="p3">next</a></body>`),
		"p3": htmlparse.Parse(`<body><h1>Three</h1></body>`),
	}
	base, err := NewEvaluator(fetcher).Run(MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	titles := base.Instances("title")
	if len(titles) != 3 {
		t.Fatalf("titles = %d", len(titles))
	}
	var got []string
	for _, in := range titles {
		got = append(got, strings.TrimSpace(in.TextContent()))
	}
	want := map[string]bool{"One": true, "Two": true, "Three": true}
	for _, g := range got {
		if !want[g] {
			t.Errorf("unexpected title %q", g)
		}
	}
}

func TestCrawlLimit(t *testing.T) {
	// A self-linking page must hit the crawl guard, not loop forever:
	// the fetch cache dedups by URL, so a *cycle* terminates naturally;
	// use an infinite chain instead.
	n := 0
	fetch := FetcherFunc(func(url string) (*dom.Tree, error) {
		n++
		return htmlparse.Parse(`<body><a href="p` + strings.Repeat("x", n) + `">next</a></body>`), nil
	})
	src := `
doc(S, X) <- document("p0", S), subelem(S, .body, X)
link(S, X) <- doc(_, S), subelem(S, ?.a, X)
url(S, X) <- link(_, S), subatt(S, href, X)
next(S, X) <- url(_, S), getDocument(S, X)
doc(S, X) <- next(_, S), subelem(S, .body, X)
`
	ev := NewEvaluator(fetch)
	ev.MaxDocuments = 10
	_, err := ev.Run(MustParse(src))
	if err == nil {
		t.Fatal("expected crawl-limit error")
	}
	if !strings.Contains(err.Error(), "crawl limit") {
		t.Fatalf("got %v", err)
	}
}

func TestDistanceToleranceBinding(t *testing.T) {
	src := `
cell(S, X) <- document("d", S), subelem(S, ?.td, X)
neartail(S, X) <- cell(S, X), after(S, X, ?.hr, 0, 1, _, D)
`
	doc := htmlparse.Parse(`<body><table><tr><td>a</td><td>b</td></tr></table><hr></body>`)
	base, err := NewEvaluator(MapFetcher{"d": doc}).Run(MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	// td "b" is 2 positions from the hr (text node + nothing...) —
	// at least the second cell must qualify, the first is farther.
	near := base.Instances("neartail")
	if len(near) == 0 {
		t.Fatal("no neartail instances")
	}
	for _, in := range near {
		if strings.TrimSpace(in.TextContent()) == "a" {
			t.Errorf("td 'a' should be too far from hr")
		}
	}
}

func TestEPDParsing(t *testing.T) {
	for _, tc := range []struct {
		src   string
		steps int
		conds int
	}{
		{".body", 1, 0},
		{"?.td", 2, 0},
		{"(.table, [])", 1, 0},
		{"(?.td, [(elementtext, x, substr)])", 2, 1},
		{"(.td, [(color, green, exact), (class, x, substr)])", 1, 2},
		{"?.td.?.a", 4, 0},
		{".*.table", 2, 0},
	} {
		e, err := ParseEPD(tc.src)
		if err != nil {
			t.Errorf("ParseEPD(%q): %v", tc.src, err)
			continue
		}
		if len(e.Steps) != tc.steps || len(e.Conds) != tc.conds {
			t.Errorf("ParseEPD(%q): steps=%d conds=%d, want %d/%d", tc.src, len(e.Steps), len(e.Conds), tc.steps, tc.conds)
		}
	}
	for _, bad := range []string{"", "(.td, [x)"} {
		if _, err := ParseEPD(bad); err == nil {
			t.Errorf("ParseEPD(%q) succeeded", bad)
		}
	}
}

func TestProgramStringRoundTrip(t *testing.T) {
	p := MustParse(ebayProgram)
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, p.String())
	}
	if len(p2.Rules) != len(p.Rules) {
		t.Fatalf("rule count changed: %d vs %d", len(p.Rules), len(p2.Rules))
	}
}

func BenchmarkE8_EbayWrapper(b *testing.B) {
	prog := MustParse(ebayProgram)
	// A larger listing: 200 items.
	var sb strings.Builder
	sb.WriteString(`<html><body><table><tr><td>item</td></tr></table>`)
	for i := 0; i < 200; i++ {
		sb.WriteString(`<table><tr><td><a href="i.html">Item</a></td><td>$ 10.00</td><td>2 bids</td></tr></table>`)
	}
	sb.WriteString(`<hr></body></html>`)
	doc := htmlparse.Parse(sb.String())
	ev := NewEvaluator(MapFetcher{"www.ebay.com/": doc})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base, err := ev.Run(prog)
		if err != nil {
			b.Fatal(err)
		}
		if len(base.Instances("record")) != 200 {
			b.Fatalf("records = %d", len(base.Instances("record")))
		}
	}
}

func TestStratifiedNegatedPatternRef(t *testing.T) {
	// Cells that are NOT prices: requires the price pattern to be fully
	// computed before the negated reference is checked — the stratified
	// negation feature of Section 3.3.
	src := `
cell(S, X) <- document("d", S), subelem(S, ?.td, X)
price(S, X) <- cell(S, X), subtext(S, \var[Y], X2), isCurrency(Y)
nonprice(S, X) <- cell(S, X), not price(_, X)
`
	// The price rule above is awkward (subtext under a specialization);
	// use a cleaner formulation.
	src = `
cell(S, X) <- document("d", S), subelem(S, ?.td, X)
price(S, X) <- cell(S, X), contains(X, (?.b, [(class, cur, exact)]), _)
nonprice(S, X) <- cell(S, X), not price(_, X)
`
	doc := htmlparse.Parse(`<table><tr>
<td><b class="cur">$</b> 10</td>
<td>just text</td>
<td><b class="cur">$</b> 20</td>
</tr></table>`)
	base, err := NewEvaluator(MapFetcher{"d": doc}).Run(MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(base.Instances("price")); got != 2 {
		t.Fatalf("price = %d", got)
	}
	non := base.Instances("nonprice")
	if len(non) != 1 {
		t.Fatalf("nonprice = %d", len(non))
	}
	if got := strings.TrimSpace(non[0].TextContent()); got != "just text" {
		t.Errorf("nonprice text = %q", got)
	}
}

func TestStratifyRejectsNegationCycle(t *testing.T) {
	src := `
a(S, X) <- document("d", S), subelem(S, ?.td, X), not b(_, X)
b(S, X) <- document("d", S), subelem(S, ?.td, X), not a(_, X)
`
	doc := htmlparse.Parse(`<table><tr><td>x</td></tr></table>`)
	if _, err := NewEvaluator(MapFetcher{"d": doc}).Run(MustParse(src)); err == nil {
		t.Fatal("negation cycle accepted")
	}
}

func TestStratifyOrdering(t *testing.T) {
	p := MustParse(`
a(S, X) <- document("d", S), subelem(S, .body, X)
b(S, X) <- a(_, S), subelem(S, ?.td, X), not c(_, X)
c(S, X) <- a(_, S), subelem(S, ?.th, X)
`)
	strata, err := Stratify(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(strata) != 2 {
		t.Fatalf("strata = %d", len(strata))
	}
	for _, r := range strata[0] {
		if r.Head == "b" {
			t.Error("b must be in the upper stratum")
		}
	}
}

func TestComparisonConditions(t *testing.T) {
	// Extract only flights after a threshold time — date/number-aware
	// comparisons from the concepts package.
	src := `
row(S, X) <- document("d", S), subelem(S, ?.tr, X)
late(S, X) <- row(S, X), contains(X, (?.td, [(class, time, exact)]), T), >(T, "12:00")
`
	doc := htmlparse.Parse(`<table>
<tr><td class="time">09:30</td></tr>
<tr><td class="time">15:45</td></tr>
<tr><td class="time">23:10</td></tr>
</table>`)
	base, err := NewEvaluator(MapFetcher{"d": doc}).Run(MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(base.Instances("late")); got != 2 {
		t.Fatalf("late = %d", got)
	}
}

func TestNegatedConceptCondition(t *testing.T) {
	src := `
tok(S, X) <- document("d", S), subtext(S, \var[Y], X)
noncur(S, X) <- tok(S, X), not isCurrency(X)
`
	doc := htmlparse.Parse(`<p>price $ 12</p>`)
	base, err := NewEvaluator(MapFetcher{"d": doc}).Run(MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range base.Instances("noncur") {
		if in.Text == "$" {
			t.Errorf("currency token %q classified as non-currency", in.Text)
		}
	}
	if len(base.Instances("noncur")) != 2 { // "price", "12"
		t.Errorf("noncur = %v", len(base.Instances("noncur")))
	}
}

func TestSubattMissingAttribute(t *testing.T) {
	src := `
link(S, X) <- document("d", S), subelem(S, ?.a, X)
href(S, X) <- link(_, S), subatt(S, href, X)
`
	doc := htmlparse.Parse(`<p><a href="u">with</a><a>without</a></p>`)
	base, err := NewEvaluator(MapFetcher{"d": doc}).Run(MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(base.Instances("href")); got != 1 {
		t.Fatalf("href = %d", got)
	}
}

// TestE8AblationLandmarks: the DESIGN.md ablation — a wrapper keyed on
// absolute positions breaks under layout perturbation, while the
// landmark-based Figure 5 wrapper survives (the robustness motivation of
// Section 1).
func TestE8AblationLandmarks(t *testing.T) {
	// Brittle wrapper: records are "the 2nd..4th table of the body",
	// approximated here as "tables immediately following the first
	// table" without landmarks: take ALL body tables as records.
	brittle := MustParse(`
record(S, X) <- document("www.ebay.com/", S), subelem(S, .body.table, X)
itemdes(S, X) <- record(_, S), subelem(S, (?.td.?.a, []), X)
`)
	robust := MustParse(ebayProgram)

	clean := htmlparse.Parse(ebayPage())
	// Perturbed page: an extra navigation TABLE before the header — the
	// kind of redesign the paper says sites do intentionally.
	var b strings.Builder
	b.WriteString(`<html><body>`)
	b.WriteString(`<table class="nav"><tr><td><a href="/">home</a></td></tr></table>`)
	b.WriteString(`<table><tr><td>item</td></tr></table>`)
	b.WriteString(`<table><tr><td><a href="i.html">Only Item</a></td><td>$ 1.00</td><td>0 bids</td></tr></table>`)
	b.WriteString(`<hr></body></html>`)
	perturbed := htmlparse.Parse(b.String())

	countDes := func(p *Program, doc *dom.Tree) int {
		base, err := NewEvaluator(MapFetcher{"www.ebay.com/": doc}).Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return len(base.Instances("itemdes"))
	}
	// On the clean page the brittle wrapper over-extracts (header table
	// has no <a>, so it happens to match 3 here) — but on the perturbed
	// page it extracts the nav link as an "item description".
	if got := countDes(brittle, perturbed); got == 1 {
		t.Fatal("expected the brittle wrapper to mis-extract under perturbation")
	}
	if got := countDes(robust, perturbed); got != 1 {
		t.Fatalf("landmark wrapper: %d itemdes on perturbed page, want exactly 1", got)
	}
	if got := countDes(robust, clean); got != 3 {
		t.Fatalf("landmark wrapper: %d itemdes on clean page, want 3", got)
	}
}

func TestTagAlternation(t *testing.T) {
	src := `
cell(S, X) <- document("d", S), subelem(S, ?.td|th, X)
`
	doc := htmlparse.Parse(`<table><tr><th>h</th><td>a</td><td>b</td></tr></table>`)
	base, err := NewEvaluator(MapFetcher{"d": doc}).Run(MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(base.Instances("cell")); got != 3 {
		t.Fatalf("cells = %d", got)
	}
}

func TestFirstSubtreeCondition(t *testing.T) {
	src := `
firstrow(S, X) <- document("d", S), subelem(S, ?.tr, X), firstsubtree(S, X)
`
	doc := htmlparse.Parse(`<table><tr><td>one</td></tr><tr><td>two</td></tr><tr><td>three</td></tr></table>`)
	base, err := NewEvaluator(MapFetcher{"d": doc}).Run(MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	rows := base.Instances("firstrow")
	if len(rows) != 1 {
		t.Fatalf("firstrow = %d", len(rows))
	}
	if got := strings.TrimSpace(rows[0].TextContent()); got != "one" {
		t.Errorf("firstrow text = %q", got)
	}
}
