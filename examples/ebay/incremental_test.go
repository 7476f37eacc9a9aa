package main

import (
	"context"
	"testing"

	"repro/internal/web"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

// TestFigure5IncrementalDifferential re-extracts the crawling Figure 5
// wrapper over a churning auction site and requires the incremental
// wrapper (one compiled program held across versions, with incremental
// output on) to produce an instance base — and rendered XML —
// byte-identical to a freshly compiled wrapper's extraction of each version,
// including versions whose structural mutations knock pages out of
// document order and force the full-matching fallback.
func TestFigure5IncrementalDifferential(t *testing.T) {
	sim := web.New()
	site := web.NewAuctionSite(2004, 40)
	site.Register(sim, "www.ebay.com")
	churn := &web.ChurnFetcher{Inner: sim, Seed: 12, PerStep: 5, Grow: true}

	opts := []lixto.Option{
		lixto.WithFetcher(churn),
		lixto.WithAuxiliary("tableseq", "tableseq2", "nextlink", "nexturl", "nextpage"),
		lixto.WithRoot("auctions"),
	}
	w, err := lixto.Compile(figure5, append(opts, lixto.WithIncrementalOutput(true))...)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 5; step++ {
		cold, err := lixto.Compile(figure5, opts...)
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
