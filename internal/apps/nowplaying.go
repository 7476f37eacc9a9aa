// Package apps implements the industrial application case studies of
// Section 6 as runnable services over the simulated web: Now Playing
// (6.1), flight schedule information (6.2), press clipping with NITF
// output (6.3), the viticulture portal (6.4), automotive portal
// monitoring (6.5), business intelligence / competitor monitoring (6.6),
// and power trading (6.7). Each application wires Lixto wrappers into a
// Transformation Server pipeline and delivers XML to a collector that
// stands in for the PDA / SMS / enterprise endpoint.
package apps

import (
	"fmt"
	"strings"

	"repro/internal/pib"
	"repro/internal/transform"
	"repro/internal/web"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

// NowPlaying is the mobile-entertainment application of Section 6.1:
// playlists of radio stations, current songs, chart rankings and lyrics,
// integrated into one portal feed. Data comes from 14 sites in three
// groups — radio channels (fast refresh), charts and lyrics (slow
// refresh) — exactly the source split the paper describes.
type NowPlaying struct {
	Web      *web.Web
	Engine   *transform.Engine
	Portal   *transform.Collector
	Stations []*web.RadioSite
	Charts   []*web.ChartSite
}

// NewNowPlaying builds the whole service: 8 radio stations, 5 charts,
// 1 lyrics site (14 sources), one wrapper per site, an integrator and
// the portal transformer.
func NewNowPlaying(seed int64) (*NowPlaying, error) {
	sim := web.New()
	pool := web.SongPool(seed, 40)

	app := &NowPlaying{Web: sim, Engine: transform.NewEngine()}
	stationNames := []string{
		"radio-wien", "oe3", "fm4", "radio-noe", // national (Austrian)
		"radio-paris", "radio-london", "radio-rome", "radio-berlin", // international
	}
	var expect []string
	for i, name := range stationNames {
		st := web.NewRadioSite(name, pool, i*3)
		st.Register(sim, name+".example.com")
		app.Stations = append(app.Stations, st)
		src := &transform.WrapperSource{
			CompName: "wrap-" + name,
			Fetcher:  sim,
			Wrapper:  lixto.MustCompile(radioWrapper(name+".example.com"), lixto.WithDesign(&pib.Design{Auxiliary: map[string]bool{"document": true, "page": true}, RootName: "station"})),
			Every:    1, // radio channels refresh every tick ("a few seconds")
		}
		if err := app.Engine.Add(src); err != nil {
			return nil, err
		}
		expect = append(expect, src.CompName)
	}
	chartNames := []string{"top40", "billboard", "airplay", "dance", "indie"}
	for i, name := range chartNames {
		ch := web.NewChartSite(name, pool, seed+int64(i+1), 10)
		ch.Register(sim, name+".example.com")
		app.Charts = append(app.Charts, ch)
		src := &transform.WrapperSource{
			CompName: "wrap-" + name,
			Fetcher:  sim,
			Wrapper:  lixto.MustCompile(chartWrapper(name+".example.com"), lixto.WithDesign(&pib.Design{Auxiliary: map[string]bool{"document": true, "page": true}, RootName: "chart"})),
			Every:    5, // charts refresh on a slower schedule ("hours or days")
		}
		if err := app.Engine.Add(src); err != nil {
			return nil, err
		}
		expect = append(expect, src.CompName)
	}
	lyr := &web.LyricsSite{Pool: pool}
	lyr.Register(sim, "lyrics.example.com")
	lyrSrc := &transform.WrapperSource{
		CompName: "wrap-lyrics",
		Fetcher:  sim,
		Wrapper:  lixto.MustCompile(lyricsWrapper("lyrics.example.com", len(pool)), lixto.WithDesign(&pib.Design{Auxiliary: map[string]bool{"document": true}, RootName: "lyricsdb"})),
		Every:    5,
	}
	if err := app.Engine.Add(lyrSrc); err != nil {
		return nil, err
	}
	expect = append(expect, "wrap-lyrics")

	integrator := &transform.Integrator{CompName: "merge", Expect: expect, RootName: "sources"}
	if err := app.Engine.Add(integrator); err != nil {
		return nil, err
	}
	for _, e := range expect {
		if err := app.Engine.Connect(e, "merge"); err != nil {
			return nil, err
		}
	}
	portalT := &transform.Transformer{CompName: "portal", Fn: buildPortal}
	if err := app.Engine.Add(portalT); err != nil {
		return nil, err
	}
	if err := app.Engine.Connect("merge", "portal"); err != nil {
		return nil, err
	}
	app.Portal = &transform.Collector{CompName: "pda"}
	if err := app.Engine.Add(app.Portal); err != nil {
		return nil, err
	}
	if err := app.Engine.Connect("portal", "pda"); err != nil {
		return nil, err
	}
	return app, nil
}

// SourceCount reports the number of wrapped web sites (the paper: "data
// is extracted from 14 different web sites").
func (a *NowPlaying) SourceCount() int { return len(a.Stations) + len(a.Charts) + 1 }

// Step advances simulated time (songs rotate) and ticks the pipeline.
func (a *NowPlaying) Step() {
	for _, st := range a.Stations {
		st.Advance()
	}
	a.Engine.Tick()
}

func radioWrapper(host string) string {
	return fmt.Sprintf(`
page(S, X) <- document("%s/playlist.html", S), subelem(S, .body, X)
now(S, X) <- page(_, S), subelem(S, (?.div, [(class, nowplaying, exact)]), X)
title(S, X) <- now(_, S), subelem(S, (?.span, [(class, title, exact)]), X)
artist(S, X) <- now(_, S), subelem(S, (?.span, [(class, artist, exact)]), X)
`, host)
}

func chartWrapper(host string) string {
	return fmt.Sprintf(`
page(S, X) <- document("%s/top.html", S), subelem(S, .body, X)
entry(S, X) <- page(_, S), subelem(S, ?.tr, X), contains(X, (?.td, [(class, rank, exact)]), _)
rank(S, X) <- entry(_, S), subelem(S, (?.td, [(class, rank, exact)]), X)
song(S, X) <- entry(_, S), subelem(S, (?.td, [(class, song, exact)]), X)
artist(S, X) <- entry(_, S), subelem(S, (?.td, [(class, artist, exact)]), X)
`, host)
}

func lyricsWrapper(host string, n int) string {
	// The lyrics group wraps the index and follows each link — the
	// crawling feature.
	return fmt.Sprintf(`
index(S, X) <- document("%s/index.html", S), subelem(S, .body, X)
link(S, X) <- index(_, S), subelem(S, ?.a, X)
url(S, X) <- link(_, S), subatt(S, href, X)
songpage(S, X) <- url(_, S), getDocument(S, X)
song(S, X) <- songpage(_, S), subelem(S, (?.h1, [(class, song, exact)]), X)
lyrics(S, X) <- songpage(_, S), subelem(S, (?.pre, [(class, lyrics, exact)]), X)
`, host)
}

// buildPortal joins the merged sources into the PDA portal document:
// one <station> entry per radio channel with its current song, that
// song's rank in every chart that lists it, and a lyrics snippet.
func buildPortal(merged *xmlenc.Node) (*xmlenc.Node, error) {
	// Chart lookup: song title -> (chart name, rank).
	type ranking struct{ chart, rank string }
	rankings := map[string][]ranking{}
	for _, chart := range merged.Find("chart") {
		src, _ := chart.Attr("source")
		for _, e := range chart.Find("entry") {
			song := e.FirstChild("song")
			rank := e.FirstChild("rank")
			if song == nil || rank == nil {
				continue
			}
			title := strings.TrimSpace(song.Text)
			rankings[title] = append(rankings[title], ranking{chart: src, rank: strings.TrimSpace(rank.Text)})
		}
	}
	// Lyrics lookup.
	lyrics := map[string]string{}
	for _, db := range merged.Find("lyricsdb") {
		for _, sp := range db.Find("songpage") {
			song := sp.FirstChild("song")
			ly := sp.FirstChild("lyrics")
			if song != nil && ly != nil {
				lyrics[strings.TrimSpace(song.Text)] = strings.TrimSpace(ly.Text)
			}
		}
	}
	portal := xmlenc.NewElement("nowplaying")
	for _, st := range merged.Find("station") {
		src, _ := st.Attr("source")
		now := st.FirstChild("now")
		if now == nil {
			continue
		}
		title := strings.TrimSpace(textOf(now.FirstChild("title")))
		artist := strings.TrimSpace(textOf(now.FirstChild("artist")))
		entry := portal.AppendElement("station")
		entry.SetAttr("name", strings.TrimPrefix(src, "wrap-"))
		entry.AppendTextElement("song", title)
		entry.AppendTextElement("artist", artist)
		for _, r := range rankings[title] {
			re := entry.AppendElement("ranking")
			re.SetAttr("chart", strings.TrimPrefix(r.chart, "wrap-"))
			re.Text = r.rank
		}
		if ly, ok := lyrics[title]; ok {
			entry.AppendTextElement("lyrics", ly)
		}
	}
	return portal, nil
}

func textOf(n *xmlenc.Node) string {
	if n == nil {
		return ""
	}
	return n.TextContent()
}
