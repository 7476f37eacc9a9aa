package htmlparse_test

import (
	"testing"

	"repro/internal/htmlparse"
	"repro/internal/web"
)

// TestParseMatchesLegacyOnSimulatedWeb runs the builder-vs-legacy
// differential over every page of every site family of the simulated
// web (internal/web imports this package, hence the external test):
// the markup the applications and examples actually wrap.
func TestParseMatchesLegacyOnSimulatedWeb(t *testing.T) {
	w := web.New()
	pool := web.SongPool(3, 8)
	web.NewAuctionSite(1, 45).Register(w, "auction")
	web.NewBookSite(2, 10).Register(w, "books")
	web.NewRadioSite("r1", pool, 0).Register(w, "radio")
	web.NewChartSite("top", pool, 4, 8).Register(w, "charts")
	(&web.LyricsSite{Pool: pool}).Register(w, "lyrics")
	web.NewFlightSite(5, 12).Register(w, "air")
	web.NewNewsSite("press", 6, 6).Register(w, "news")
	web.NewQuoteSite(7, "ABC", "XYZ").Register(w, "quotes")
	web.NewPowerSite(8).Register(w, "power")
	(&web.VitiSite{Regions: []string{"Wachau", "Burgenland"}}).Register(w, "wine")
	web.NewPortalSite(9, 5).Register(w, "portal")

	urls := w.URLs()
	if len(urls) < 20 {
		t.Fatalf("only %d pages registered", len(urls))
	}
	for _, url := range urls {
		src, err := w.Source(url)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(url, func(t *testing.T) {
			htmlparse.AssertSameTree(t, htmlparse.Parse(src), htmlparse.ParseLegacy(src))
		})
	}
}
