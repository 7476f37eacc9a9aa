package htmlparse_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/htmlparse"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

// sameWarmTree fails unless got, a tree warmed from a previous version,
// is the tree a full parse gives: Equal, with the same label symbols in
// the same order, the same pre/post index, subtree hashes, bitsets,
// Fingerprint and ContentKey.
func sameWarmTree(t *testing.T, what string, got, want *dom.Tree) {
	t.Helper()
	if !dom.Equal(got, want) {
		t.Fatalf("%s: trees differ\n got %s\nwant %s", what, got, want)
	}
	if got.Fingerprint() != want.Fingerprint() || got.ContentKey() != want.ContentKey() || got.DocOrdered() != want.DocOrdered() {
		t.Fatalf("%s: fingerprint %#x/%#x, content key %#x/%#x, doc-ordered %v/%v",
			what, got.Fingerprint(), want.Fingerprint(), got.ContentKey(), want.ContentKey(), got.DocOrdered(), want.DocOrdered())
	}
	if got.NumLabels() != want.NumLabels() {
		t.Fatalf("%s: %d labels, want %d", what, got.NumLabels(), want.NumLabels())
	}
	for id := dom.LabelID(0); int(id) < want.NumLabels(); id++ {
		if got.LabelName(id) != want.LabelName(id) || fmt.Sprint(got.LabelBits(id)) != fmt.Sprint(want.LabelBits(id)) {
			t.Fatalf("%s: label %d is %q, want %q (or its bitset differs)", what, id, got.LabelName(id), want.LabelName(id))
		}
	}
	for k := dom.Element; k <= dom.Comment; k++ {
		if fmt.Sprint(got.KindBits(k)) != fmt.Sprint(want.KindBits(k)) {
			t.Fatalf("%s: kind %d bitset differs", what, k)
		}
	}
	for i := 0; i < want.Size(); i++ {
		n := dom.NodeID(i)
		if got.LabelID(n) != want.LabelID(n) || got.SubtreeHash(n) != want.SubtreeHash(n) ||
			got.Pre(n) != want.Pre(n) || got.Post(n) != want.Post(n) || got.SubtreeSize(n) != want.SubtreeSize(n) {
			t.Fatalf("%s: node %d: label %d/%d, hash %#x/%#x, pre %d/%d, post %d/%d, size %d/%d", what, i,
				got.LabelID(n), want.LabelID(n), got.SubtreeHash(n), want.SubtreeHash(n), got.Pre(n), want.Pre(n),
				got.Post(n), want.Post(n), got.SubtreeSize(n), want.SubtreeSize(n))
		}
	}
}

// warmed parses src and warms it: the full build.
func warmed(src string) *dom.Tree {
	t := htmlparse.Parse(src)
	t.Warm()
	return t
}

// warmedFrom parses src and warms it from prev: the incremental build.
func warmedFrom(src string, prev *dom.Tree) *dom.Tree {
	t := htmlparse.Parse(src)
	t.WarmFrom(prev)
	return t
}

// restamp rewrites the "@<n>" version stamp of every row in the given
// sections of a catalogue page, as the benchmark's upstream does.
func restamp(page string, sections []int, stamp int) string {
	parts := strings.SplitAfter(page, "</div>")
	for _, s := range sections {
		parts[s] = strings.ReplaceAll(parts[s], " @0<", fmt.Sprintf(" @%d<", stamp))
	}
	return strings.Join(parts, "")
}

// fallbackCount returns how many rebuilds have fallen back for reason.
func fallbackCount(reason string) int64 {
	return htmlparse.Fallbacks(htmlparse.FallbackReasons[reason])
}

// TestIncrementalParseWork counts the bytes a changed catalogue page
// tokenizes when it is warmed from its previous version: about the
// changed sections' bytes when 1 or 3 of 60 changed, the whole page
// when all did. It also pins the allocations of the grafted build.
func TestIncrementalParseWork(t *testing.T) {
	page := htmlparse.CataloguePage(60, 40, false)
	prev := warmed(page)
	sectionBytes := len(page) / 60
	for _, c := range []struct {
		name     string
		sections []int
		full     bool
	}{
		{"1 of 60", []int{17}, false},
		{"3 of 60", []int{30, 31, 32}, false},
		{"60 of 60", nil, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			sections := c.sections
			if c.full {
				for s := 0; s < 60; s++ {
					sections = append(sections, s)
				}
			}
			next := restamp(page, sections, 7)
			before := htmlparse.TokenizedBytes()
			got := warmedFrom(next, prev)
			n := htmlparse.TokenizedBytes() - before
			sameWarmTree(t, c.name, got, warmed(next))
			t.Logf("%d sections changed: %d of %d bytes tokenized", len(sections), n, len(next))
			switch {
			case c.full && n != int64(len(next)):
				t.Errorf("tokenized %d bytes, want the full %d", n, len(next))
			case !c.full && n > int64(2*len(sections)*sectionBytes):
				t.Errorf("tokenized %d bytes for %d changed sections of about %d bytes, want at most twice theirs",
					n, len(sections), sectionBytes)
			}
		})
	}

	// The grafted build of a 3-section change: a few arenas for the
	// whole tree plus the window's builder, like the full build's.
	next := restamp(page, []int{30, 31, 32}, 7)
	var tree *dom.Tree
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(10, func() { tree = warmedFrom(next, prev) })
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / 11
	full := testing.AllocsPerRun(10, func() { warmed(next) })
	t.Logf("grafted build: %.0f allocations, %d bytes; full build and warm: %.0f allocations", allocs, bytes, full)
	if allocs > 32 || bytes > 900<<10 {
		t.Errorf("grafted build: %.0f allocations, %d bytes; budget 32 allocations, %d bytes", allocs, bytes, 900<<10)
	}
	sameWarmTree(t, "measured graft", tree, warmed(next))
}

// TestIncrementalChain warms each version of a catalogue page from the
// one before, through many versions whose rewritten window rotates
// across the page like the benchmark's: every version equals its full
// parse, and most are grafted.
func TestIncrementalChain(t *testing.T) {
	page := htmlparse.CataloguePage(60, 20, false)
	prev := warmed(page)
	tokens := htmlparse.TokenizedBytes()
	total := 0
	for v := 1; v <= 40; v++ {
		start := (v * 3) % 60
		next := restamp(page, []int{start, (start + 1) % 60, (start + 2) % 60}, v)
		got := warmedFrom(next, prev)
		sameWarmTree(t, fmt.Sprintf("version %d", v), got, warmed(next))
		total += len(next)
		prev = got
	}
	// warmed(next) above tokenizes every version in full once.
	if n := htmlparse.TokenizedBytes() - tokens - int64(total); n > int64(total)/5 {
		t.Errorf("the chain tokenized %d of %d bytes incrementally, want at most a fifth", n, total)
	}
}

// catalogueWrapper is the benchmark's catalogue program: page →
// section → SALE row → name, price.
const catalogueWrapper = `page(S, X)    <- document("bench.example.com/catalogue", S), subelem(S, .body, X)
section(S, X) <- page(_, S), subelem(S, (.div, [(class, section, exact)]), X)
row(S, X)     <- section(_, S), subelem(S, (?.tr, [(elementtext, .*SALE.*, regexp)]), X)
name(S, X)    <- row(_, S), subelem(S, (?.td, [(class, name, exact)]), X)
price(S, X)   <- row(_, S), subelem(S, (?.td, [(class, price, exact)]), X)`

// TestExtractParsesOnlyWhatChanged extracts a catalogue page and then a
// version with 3 of its 60 sections changed through a bare SDK wrapper,
// as one-shot extractions do: the evaluation builds the new version
// from the page the wrapper's retained base holds, tokenizing at most
// twice the changed sections' bytes, and extracts what a fresh wrapper
// does.
func TestExtractParsesOnlyWhatChanged(t *testing.T) {
	ctx := context.Background()
	page := htmlparse.CataloguePage(60, 40, false)
	next := restamp(page, []int{30, 31, 32}, 7)
	opts := []lixto.Option{lixto.WithAuxiliary("page", "section"), lixto.WithIncrementalOutput(true)}
	w := lixto.MustCompile(catalogueWrapper, opts...)
	extract := func(w *lixto.Wrapper, page string) string {
		t.Helper()
		res, err := w.Extract(ctx, lixto.HTML(page))
		if err != nil {
			t.Fatal(err)
		}
		return xmlenc.MarshalIndent(res.XML())
	}
	extract(w, page)
	before := htmlparse.TokenizedBytes()
	got := extract(w, next)
	n := htmlparse.TokenizedBytes() - before
	sectionBytes := len(page) / 60
	t.Logf("3 of 60 sections changed: %d of %d bytes tokenized", n, len(next))
	if n > int64(2*3*sectionBytes) {
		t.Errorf("tokenized %d bytes for 3 changed sections of about %d bytes, want at most twice theirs", n, sectionBytes)
	}
	if want := extract(lixto.MustCompile(catalogueWrapper, opts...), next); got != want {
		t.Fatalf("extraction of the changed page:\n%s\nwant (fresh wrapper):\n%s", got, want)
	}
}

// TestIncrementalFallbacks drives each reason a rebuild falls back to
// a full build for and checks both the reason and the tree.
func TestIncrementalFallbacks(t *testing.T) {
	page := htmlparse.CataloguePage(60, 40, false)
	sections := strings.SplitAfter(page, "</div>")
	edit := func(section int, old, new string) string {
		parts := append([]string(nil), sections...)
		parts[section] = strings.Replace(parts[section], old, new, 1)
		return strings.Join(parts, "")
	}
	unwarmed := htmlparse.Parse(page)
	unwarmed.Size()
	mutated := warmed(page)
	mutated.SetAttr(mutated.Root(), "lang", "en")
	small := "<html><body><div><p>a</p><p>b</p></div></body></html>"
	texts := strings.ReplaceAll(page, "</div>", "</div>between ")
	for _, c := range []struct {
		name, reason string
		prev         *dom.Tree
		next         string
	}{
		{"prev unbuilt", "prev", htmlparse.Parse(page), edit(9, "item", "thing")},
		{"prev not warmed", "prev", unwarmed, edit(9, "item", "thing")},
		{"prev mutated", "prev", mutated, edit(9, "item", "thing")},
		{"prev not in document order", "prev", outOfOrder(t), edit(9, "item", "thing")},
		{"window over half the page", "large", warmed(page), restamp(page, []int{0, 59}, 3)},
		{"no marks around the window", "anchor", warmed(small), strings.Replace(small, "<p>b", "<p>c", 1)},
		{"comment runs past the window", "boundary", warmed(page), edit(20, "item", "<!-- item")},
		{"raw text runs past the window", "boundary", warmed(page), edit(20, "item", "<script>item")},
		{"text runs across the window's end", "boundary", warmed(texts), strings.Replace(texts, "</div>between", "</div>xbetween", 5)},
		{"unclosed element at the window's end", "stack", warmed(page), edit(20, "<table>", "<div><table>")},
		{"stray end tag closes E", "stack", warmed(page), edit(20, "<table>", "</body><table>")},
		{"body synthesized in the window", "stack", warmed(page), edit(20, "<table>", "</html><p>x</p><table>")},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := fallbackCount(c.reason)
			got := warmedFrom(c.next, c.prev)
			if fallbackCount(c.reason) != before+1 {
				t.Errorf("no %q fallback", c.reason)
			}
			sameWarmTree(t, c.name, got, warmed(c.next))
		})
	}
	// A tree warmed from nil or from itself builds in full and counts no
	// fallback.
	counts := func() (n int64) {
		for _, r := range htmlparse.FallbackReasons {
			n += htmlparse.Fallbacks(r)
		}
		return n
	}
	before := counts()
	self := htmlparse.Parse(page)
	self.WarmFrom(self)
	sameWarmTree(t, "warmed from itself", self, warmed(page))
	sameWarmTree(t, "warmed from nil", warmedFrom(page, nil), warmed(page))
	if counts() != before {
		t.Error("warming from nil or from itself counted a fallback")
	}
}

// outOfOrder returns a warmed parsed tree whose ids are not in
// document order, which only a mutation makes: Clone keeps the source
// but not the content key, so it is also not spliceable for that.
func outOfOrder(t *testing.T) *dom.Tree {
	tr := htmlparse.Parse("<html><body><div><p>a</p></div><div>b</div></body></html>")
	tr.AppendChild(2, "late")
	tr.Warm()
	if tr.DocOrdered() {
		t.Fatal("fixture is in document order")
	}
	return tr
}

// editSnippets are what FuzzIncrementalParse inserts: the markup whose
// parse depends on what comes before or after it.
var editSnippets = []string{
	"x", " ", "<", ">", "&", "&amp;", "&#65;", "&lt;b", "=", "\"", "'",
	"<p>", "</p>", "<li>", "</li>", "<td>", "<tr>", "</td>", "</tr>", "<dt>", "<dd>", "<option>",
	"<div>", "</div>", "<div class=\"section\">", "</table>", "<table>", "<ul>", "</ul>",
	"<script>", "</script>", "<SCRIPT>a<b</script>", "<style>p{}</style>", "<textarea>", "<title>t</title>",
	"<!--", "-->", "<!-- c -->", "<!DOCTYPE html>", "<?pi?>",
	"<body>", "</body>", "<head>", "</head>", "<html>", "</html>", "<meta a=b>",
	"<br>", "<img src=x>", "</br>", "<x a=1 a=2>", "<b>", "</b>", "<Custom-Tag>", "</custom-tag>",
	"SALE item 3.4 @5", "</td></tr><tr><td class=\"name\">", "</table></div><div class=\"section\"><table>",
}

// applyEdits applies an edit script to src: each 4 bytes are an
// operation (insert, delete, replace), a position scaled to src, and an
// argument choosing the snippet or the length.
func applyEdits(src string, script []byte) string {
	for ; len(script) >= 4; script = script[4:] {
		op, at, arg := script[0]%3, int(binary.BigEndian.Uint16(script[1:3])), int(script[3])
		pos := at * (len(src) + 1) >> 16
		snippet := editSnippets[arg%len(editSnippets)]
		switch op {
		case 0:
			src = src[:pos] + snippet + src[pos:]
		case 1:
			src = src[:pos] + src[min(len(src), pos+arg%64+1):]
		case 2:
			src = src[:pos] + snippet + src[min(len(src), pos+arg%16+1):]
		}
	}
	return src
}

// fuzzPages are the pages FuzzIncrementalParse edits: catalogue pages
// (one with every row on sale), a page with a head, scripts, comments
// and unclosed list items and cells, and random trees rendered.
var fuzzPages = func() []string {
	pages := []string{
		htmlparse.CataloguePage(12, 20, false),
		htmlparse.CataloguePage(6, 40, true),
	}
	var b strings.Builder
	b.WriteString("<!DOCTYPE html><html><head><title>t</title><style>p{}</style></head><body>")
	for s := 0; s < 8; s++ {
		fmt.Fprintf(&b, "<div id=s%d><!-- section %d --><script>var a = 1 < 2;</script><ul>", s, s)
		for i := 0; i < 24; i++ {
			fmt.Fprintf(&b, "<li>item &amp; %d.%d<p>para<table><tr><td>a<td>b &lt; c</table>", s, i)
		}
		b.WriteString("</ul><dl><dt>t<dd>d</dl></div>")
	}
	b.WriteString("</body></html>")
	pages = append(pages, b.String())
	// Mostly elements the parser keeps as written, so that the rendered
	// page has large elements whose end tags are marks.
	alphabet := []string{"div", "div", "span", "section", "b", "div", "p", "li", "td", "table"}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := dom.RandomTree(rng, 1200, alphabet, 6)
		for i := 0; i < tr.Size(); i += 3 {
			tr.AppendText(dom.NodeID(i), fmt.Sprintf("text %d & more", i))
		}
		pages = append(pages, htmlparse.Render(tr))
	}
	return pages
}()

// FuzzIncrementalParse applies a random edit script to a page, and a
// second to the result: each version warmed from the one before must be
// the tree a full parse of it gives. It runs the two steps twice: with
// shared trees, and with owned ones (dom.Adopt), where each version is
// recycled once the next is built from it, so that the next build
// draws the arrays of the one before it from the pool.
func FuzzIncrementalParse(f *testing.F) {
	for page := range fuzzPages {
		for _, script := range [][]byte{
			nil,
			{0, 0x80, 0, 11}, {0, 0x40, 0, 29}, {0, 0x60, 0, 35}, {1, 0x50, 0, 40},
			{2, 0x30, 0, 30}, {0, 0x70, 0, 40}, {0, 0x20, 0, 43}, {0, 0x90, 0, 5},
			{0, 0x55, 0, 2, 1, 0x56, 0, 9}, {2, 0x44, 0, 24, 0, 0xa0, 0, 23},
		} {
			f.Add(uint8(page), script)
		}
	}
	f.Fuzz(func(t *testing.T, page uint8, script []byte) {
		first := fuzzPages[int(page)%len(fuzzPages)]
		mid := len(script) / 8 * 4
		for _, owned := range []bool{false, true} {
			src := first
			prev := parsed(src, owned)
			prev.Warm()
			for i, s := range [][]byte{script[:mid], script[mid:]} {
				next := applyEdits(src, s)
				got := parsed(next, owned)
				got.WarmFrom(prev)
				sameWarmTree(t, fmt.Sprintf("version %d (owned %v)", i+1, owned), got, warmed(next))
				prev.Recycle() // a no-op on a tree nobody adopted
				src, prev = next, got
			}
		}
	})
}

// parsed parses src; owned, into a private tree its caller recycles.
func parsed(src string, owned bool) *dom.Tree {
	t := htmlparse.Parse(src)
	if owned {
		return dom.Adopt(t)
	}
	return t
}

// TestIncrementalParseEquivalence runs FuzzIncrementalParse's check
// over seeded random single edits and requires that most of them graft.
func TestIncrementalParseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	counts := func() (n [5]int64) {
		for name, r := range htmlparse.FallbackReasons {
			n[r] = fallbackCount(name)
		}
		return n
	}
	before := counts()
	const edits = 300
	for i := 0; i < edits; i++ {
		src := fuzzPages[i%len(fuzzPages)]
		script := make([]byte, 4)
		rng.Read(script)
		next := applyEdits(src, script)
		got := warmedFrom(next, warmed(src))
		sameWarmTree(t, fmt.Sprintf("script %x on page %d", script, i%len(fuzzPages)), got, warmed(next))
	}
	after, fellBack := counts(), int64(0)
	for name, r := range htmlparse.FallbackReasons {
		t.Logf("%s: %d", name, after[r]-before[r])
		fellBack += after[r] - before[r]
	}
	if 2*fellBack > edits {
		t.Errorf("%d of %d single edits fell back to a full build, want fewer than half", fellBack, edits)
	}
}

// BenchmarkWarmFrom builds and warms the benchmark's catalogue page
// after 3 of its 60 sections changed: in full, and from the previous
// version.
func BenchmarkWarmFrom(b *testing.B) {
	page := htmlparse.CataloguePage(60, 40, false)
	next := restamp(page, []int{30, 31, 32}, 7)
	prev := warmed(page)
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			warmed(next)
		}
	})
	b.Run("from-prev", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			warmedFrom(next, prev)
		}
	})
}
