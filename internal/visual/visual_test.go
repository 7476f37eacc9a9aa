package visual

import (
	"strings"
	"testing"

	"repro/internal/elog"
	"repro/internal/pib"
	"repro/internal/web"
	"repro/internal/xmlenc"
)

// buildBooksWrapper drives a full visual session on a bestseller page —
// the books example of Figure 4 — using only text selections ("clicks").
func buildBooksWrapper(t *testing.T, site *web.BookSite, w *web.Web) (*Session, *elog.Program) {
	t.Helper()
	doc, err := w.Fetch("books.example.com/bestsellers.html")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(doc, "books.example.com/bestsellers.html")

	// Step 1: the page pattern.
	if err := s.AddDocumentPattern("page"); err != nil {
		t.Fatal(err)
	}
	// Step 2: the user selects the first book row. Selecting the title
	// text of book 1 picks the td; select the whole row text instead.
	rowText := site.Books[0].Title
	r, ok := s.FindText(rowText)
	if !ok {
		t.Fatalf("example text %q not on page", rowText)
	}
	if _, err := s.AddPattern("titlecell", "page", r); err != nil {
		t.Fatal(err)
	}
	// The inferred rule is too specific (exact path to one row); the
	// user generalizes so that ALL title cells match: keep the last two
	// steps (td under tr) and wildcard the prefix... the td is reached
	// via table/tr/td.
	if err := s.GeneralizePath("titlecell", 2); err != nil {
		t.Fatal(err)
	}
	// Too general now (matches all td under any tr): restrict to the
	// title column by its class attribute — the "restricting conditions"
	// refinement.
	if err := s.RequireAttribute("titlecell", "class", "title", "exact"); err != nil {
		t.Fatal(err)
	}

	// Step 3: author cells, same flow.
	ra, ok := s.FindText(site.Books[0].Author)
	if !ok {
		t.Fatal("author text missing")
	}
	if _, err := s.AddPattern("author", "page", ra); err != nil {
		t.Fatal(err)
	}
	if err := s.GeneralizePath("author", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.RequireAttribute("author", "class", "author", "exact"); err != nil {
		t.Fatal(err)
	}

	// Step 4: price cells.
	rp, ok := s.FindText(site.Books[0].Price)
	if !ok {
		t.Fatal("price text missing")
	}
	if _, err := s.AddPattern("price", "page", rp); err != nil {
		t.Fatal(err)
	}
	if err := s.GeneralizePath("price", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.RequireAttribute("price", "class", "price", "exact"); err != nil {
		t.Fatal(err)
	}
	return s, s.Program()
}

func TestE7BooksVisualWrapper(t *testing.T) {
	w := web.New()
	site := web.NewBookSite(21, 12)
	site.Register(w, "books.example.com")
	s, prog := buildBooksWrapper(t, site, w)

	counts, err := s.Test()
	if err != nil {
		t.Fatal(err)
	}
	for _, pat := range []string{"titlecell", "author", "price"} {
		if counts[pat] != 12 {
			t.Errorf("%s instances = %d, want 12 (program:\n%s)", pat, counts[pat], prog)
		}
	}
	// Productivity: the whole wrapper took a handful of gestures.
	if s.Interactions > 12 {
		t.Errorf("interactions = %d, expected a small number", s.Interactions)
	}

	// Accuracy on a HELD-OUT page: a different catalog from a different
	// seed, same layout. Rewire the program's URL by serving the new
	// page at the same address.
	w2 := web.New()
	site2 := web.NewBookSite(99, 30)
	site2.Register(w2, "books.example.com")
	ev := elog.NewEvaluator(w2)
	base, err := ev.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	titles := base.Instances("titlecell")
	if len(titles) != 30 {
		t.Fatalf("held-out titles = %d, want 30", len(titles))
	}
	for i, in := range titles {
		want := site2.Books[i].Title
		if got := strings.TrimSpace(in.TextContent()); got != want {
			t.Errorf("title[%d] = %q, want %q", i, got, want)
		}
	}
}

func TestSelectNodeBestMatch(t *testing.T) {
	w := web.New()
	web.NewBookSite(21, 3).Register(w, "b")
	doc, _ := w.Fetch("b/bestsellers.html")
	s := NewSession(doc, "b/bestsellers.html")
	// Selecting the heading text must pick the h1, not body/html.
	r, ok := s.FindText("Book Bestsellers")
	if !ok {
		t.Fatal("heading missing")
	}
	n, err := s.SelectNode(r)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Label(n) != "h1" {
		t.Errorf("selected %s, want h1", doc.Label(n))
	}
	// A selection spanning two cells must pick their common row.
	full := s.RenderedText()
	i := strings.Index(full, "1")
	j := strings.Index(full, "Vol.")
	if i < 0 || j < 0 {
		t.Skip("layout changed")
	}
	n2, err := s.SelectNode(Region{Start: i, End: j})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Label(n2) != "tr" && doc.Label(n2) != "table" {
		t.Errorf("cross-cell selection picked %s", doc.Label(n2))
	}
}

func TestSelectNodeErrors(t *testing.T) {
	w := web.New()
	web.NewBookSite(21, 3).Register(w, "b")
	doc, _ := w.Fetch("b/bestsellers.html")
	s := NewSession(doc, "b/bestsellers.html")
	if _, err := s.SelectNode(Region{Start: 5, End: 5}); err == nil {
		t.Error("empty region accepted")
	}
	if _, err := s.SelectNode(Region{Start: -1, End: 3}); err == nil {
		t.Error("negative region accepted")
	}
	if _, err := s.SelectNode(Region{Start: 0, End: 1 << 30}); err == nil {
		t.Error("out-of-range region accepted")
	}
}

func TestHighlight(t *testing.T) {
	w := web.New()
	site := web.NewBookSite(21, 5)
	site.Register(w, "books.example.com")
	s, _ := buildBooksWrapper(t, site, w)
	hs, err := s.Highlight("titlecell")
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 5 {
		t.Fatalf("highlights = %d", len(hs))
	}
	text := s.RenderedText()
	for i, h := range hs {
		if !strings.Contains(text[h.Start:h.End], site.Books[i].Title) {
			t.Errorf("highlight %d = %q does not cover title", i, text[h.Start:h.End])
		}
	}
}

func TestAddPatternOutsideParent(t *testing.T) {
	w := web.New()
	web.NewBookSite(21, 3).Register(w, "b")
	doc, _ := w.Fetch("b/bestsellers.html")
	s := NewSession(doc, "b/bestsellers.html")
	r, _ := s.FindText("Vol.")
	if _, err := s.AddPattern("x", "nosuchparent", r); err == nil {
		t.Error("undefined parent accepted")
	}
}

func TestXMLFromVisualWrapper(t *testing.T) {
	w := web.New()
	site := web.NewBookSite(21, 4)
	site.Register(w, "books.example.com")
	_, prog := buildBooksWrapper(t, site, w)
	base, err := elog.NewEvaluator(w).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	d := &pib.Design{Auxiliary: map[string]bool{"document": true, "page": true}, RootName: "books"}
	xml := xmlenc.MarshalIndent(d.Transform(base))
	if strings.Count(xml, "<titlecell>") != 4 || strings.Count(xml, "<price>") != 4 {
		t.Errorf("xml:\n%s", xml)
	}
}

func BenchmarkE7_VisualBuild(b *testing.B) {
	w := web.New()
	site := web.NewBookSite(21, 12)
	site.Register(w, "books.example.com")
	doc, _ := w.Fetch("books.example.com/bestsellers.html")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSession(doc, "books.example.com/bestsellers.html")
		if err := s.AddDocumentPattern("page"); err != nil {
			b.Fatal(err)
		}
		r, _ := s.FindText(site.Books[0].Title)
		if _, err := s.AddPattern("titlecell", "page", r); err != nil {
			b.Fatal(err)
		}
		if err := s.GeneralizePath("titlecell", 2); err != nil {
			b.Fatal(err)
		}
		if err := s.RequireAttribute("titlecell", "class", "title", "exact"); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Test(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAddBeforeCondition(t *testing.T) {
	w := web.New()
	site := web.NewBookSite(21, 4)
	site.Register(w, "books.example.com")
	doc, _ := w.Fetch("books.example.com/bestsellers.html")
	s := NewSession(doc, "books.example.com/bestsellers.html")
	if err := s.AddDocumentPattern("page"); err != nil {
		t.Fatal(err)
	}
	r, _ := s.FindText(site.Books[0].Title)
	if _, err := s.AddPattern("cell", "page", r); err != nil {
		t.Fatal(err)
	}
	if err := s.GeneralizePath("cell", 1); err != nil {
		t.Fatal(err)
	}
	// Landmark: cells must come after the page heading.
	h, ok := s.FindText("Book Bestsellers")
	if !ok {
		t.Fatal("heading missing")
	}
	before := s.Interactions
	if err := s.AddBeforeCondition("cell", h, false, 0, 100000); err != nil {
		t.Fatal(err)
	}
	if s.Interactions != before+1 {
		t.Error("interaction not counted")
	}
	counts, err := s.Test()
	if err != nil {
		t.Fatal(err)
	}
	if counts["cell"] == 0 {
		t.Errorf("condition killed all instances: %v", counts)
	}
	// An impossible landmark window kills everything.
	if err := s.AddBeforeCondition("cell", h, true, 100000, 100001); err != nil {
		t.Fatal(err)
	}
	counts, _ = s.Test()
	if counts["cell"] != 0 {
		t.Errorf("impossible condition left %d instances", counts["cell"])
	}
}
