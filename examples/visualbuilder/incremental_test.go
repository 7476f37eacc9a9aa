package main

import (
	"context"
	"testing"

	"repro/internal/visual"
	"repro/internal/web"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

// TestGeneratedWrapperIncrementalDifferential runs a visually generated
// wrapper against a churning held-out site and requires incremental
// extraction (one wrapper held across versions, with incremental output
// on) to match a freshly compiled wrapper's extraction of every
// version byte for byte — the instance base and the rendered XML both.
func TestGeneratedWrapperIncrementalDifferential(t *testing.T) {
	sim := web.New()
	site := web.NewBookSite(2004, 8)
	site.Register(sim, "books.example.com")
	doc, err := sim.Fetch("books.example.com/bestsellers.html")
	if err != nil {
		t.Fatal(err)
	}
	s := visual.NewSession(doc, "books.example.com/bestsellers.html")
	if err := s.AddDocumentPattern("page"); err != nil {
		t.Fatal(err)
	}
	region, ok := s.FindText(site.Books[0].Title)
	if !ok {
		t.Fatal("example title not on page")
	}
	if _, err := s.AddPattern("title", "page", region); err != nil {
		t.Fatal(err)
	}
	if err := s.GeneralizePath("title", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.RequireAttribute("title", "class", "title", "exact"); err != nil {
		t.Fatal(err)
	}
	src := s.Program().String()

	heldOut := web.New()
	web.NewBookSite(4071, 20).Register(heldOut, "books.example.com")
	churn := &web.ChurnFetcher{Inner: heldOut, Seed: 6, PerStep: 4}

	w, err := lixto.Compile(src, lixto.WithAuxiliary("page"), lixto.WithFetcher(churn),
		lixto.WithIncrementalOutput(true))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 5; step++ {
		cold, err := lixto.Compile(src, lixto.WithAuxiliary("page"), lixto.WithFetcher(churn))
		if err != nil {
			t.Fatal(err)
		}
		wantRes, err := cold.Extract(context.Background(), lixto.Origin())
		if err != nil {
			t.Fatalf("step %d cold: %v", step, err)
		}
		gotRes, err := w.Extract(context.Background(), lixto.Origin())
		if err != nil {
			t.Fatalf("step %d incremental: %v", step, err)
		}
		if want, got := wantRes.Base.Dump(), gotRes.Base.Dump(); got != want {
			t.Errorf("step %d: incremental base diverges from cold extraction:\n--- cold ---\n%s--- incremental ---\n%s", step, want, got)
		}
		if want, got := xmlenc.MarshalIndent(wantRes.XML()), xmlenc.MarshalIndent(gotRes.XML()); got != want {
			t.Errorf("step %d: incremental XML diverges from cold rebuild:\n--- cold ---\n%s--- incremental ---\n%s", step, want, got)
		}
		churn.Advance()
	}
}
