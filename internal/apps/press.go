package apps

import (
	"strings"

	"repro/internal/pib"
	"repro/internal/transform"
	"repro/internal/web"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

// PressClipping is the financial-news application of Section 6.3: news
// is extracted from press sites, converted into NITF (News Industry Text
// Format, part of NewsML), aggregated with the latest stock quotes, and
// republished.
type PressClipping struct {
	Web    *web.Web
	News   *web.NewsSite
	Quotes *web.QuoteSite
	Engine *transform.Engine
	Out    *transform.Collector
}

// NewPressClipping builds the clipping service.
func NewPressClipping(seed int64) (*PressClipping, error) {
	sim := web.New()
	news := web.NewNewsSite("Financial Daily", seed, 6)
	news.Register(sim, "press.example.com")
	quotes := web.NewQuoteSite(seed, "ACME", "Globex", "Initech", "Umbrella", "Hooli", "Stark")
	quotes.Register(sim, "quotes.example.com")
	app := &PressClipping{Web: sim, News: news, Quotes: quotes, Engine: transform.NewEngine()}

	newsSrc := &transform.WrapperSource{
		CompName: "wrap-news",
		Fetcher:  sim,
		Wrapper: lixto.MustCompile(`
page(S, X) <- document("press.example.com/news.html", S), subelem(S, .body, X)
article(S, X) <- page(_, S), subelem(S, (?.div, [(class, article, exact)]), X)
headline(S, X) <- article(_, S), subelem(S, (?.h2, [(class, headline, exact)]), X)
date(S, X) <- article(_, S), subelem(S, (?.span, [(class, date, exact)]), X)
ticker(S, X) <- article(_, S), subelem(S, (?.span, [(class, ticker, exact)]), X)
body(S, X) <- article(_, S), subelem(S, (?.p, [(class, body, exact)]), X)
`, lixto.WithDesign(&pib.Design{Auxiliary: map[string]bool{"document": true, "page": true}, RootName: "news"})),
	}
	quoteSrc := &transform.WrapperSource{
		CompName: "wrap-quotes",
		Fetcher:  sim,
		Wrapper: lixto.MustCompile(`
page(S, X) <- document("quotes.example.com/quotes.html", S), subelem(S, .body, X)
quote(S, X) <- page(_, S), subelem(S, (?.tr, [(class, quote, exact)]), X)
ticker(S, X) <- quote(_, S), subelem(S, (?.td, [(class, ticker, exact)]), X)
value(S, X) <- quote(_, S), subelem(S, (?.td, [(class, value, exact)]), X)
`, lixto.WithDesign(&pib.Design{Auxiliary: map[string]bool{"document": true, "page": true}, RootName: "quotes"})),
	}
	integrator := &transform.Integrator{CompName: "merge", Expect: []string{"wrap-news", "wrap-quotes"}}
	nitf := &transform.Transformer{CompName: "nitf", Fn: toNITF}
	app.Out = &transform.Collector{CompName: "publish"}
	for _, c := range []transform.Component{newsSrc, quoteSrc, integrator, nitf, app.Out} {
		if err := app.Engine.Add(c); err != nil {
			return nil, err
		}
	}
	for _, e := range [][2]string{
		{"wrap-news", "merge"}, {"wrap-quotes", "merge"},
		{"merge", "nitf"}, {"nitf", "publish"},
	} {
		if err := app.Engine.Connect(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return app, nil
}

// toNITF renders the merged news+quotes document as a NITF feed: one
// <nitf> document per article, each annotated with the latest quote for
// the company it mentions.
func toNITF(merged *xmlenc.Node) (*xmlenc.Node, error) {
	quotes := map[string]string{}
	for _, q := range merged.Find("quote") {
		t := strings.TrimSpace(textOf(q.FirstChild("ticker")))
		v := strings.TrimSpace(textOf(q.FirstChild("value")))
		if t != "" {
			quotes[t] = v
		}
	}
	feed := xmlenc.NewElement("nitf-feed")
	for _, a := range merged.Find("article") {
		nitf := feed.AppendElement("nitf")
		head := nitf.AppendElement("head")
		head.AppendTextElement("title", strings.TrimSpace(textOf(a.FirstChild("headline"))))
		docdata := head.AppendElement("docdata")
		dateEl := docdata.AppendElement("date.issue")
		dateEl.SetAttr("norm", strings.TrimSpace(textOf(a.FirstChild("date"))))
		body := nitf.AppendElement("body")
		bodyHead := body.AppendElement("body.head")
		hed := bodyHead.AppendElement("hedline")
		hed.AppendTextElement("hl1", strings.TrimSpace(textOf(a.FirstChild("headline"))))
		content := body.AppendElement("body.content")
		content.AppendTextElement("p", strings.TrimSpace(textOf(a.FirstChild("body"))))
		ticker := strings.TrimSpace(textOf(a.FirstChild("ticker")))
		if v, ok := quotes[ticker]; ok {
			q := content.AppendElement("quote")
			q.SetAttr("ticker", ticker)
			q.Text = v
		}
	}
	return feed, nil
}

// Step advances quotes, optionally publishes a new article, and ticks.
func (a *PressClipping) Step(publish bool, seed int64) {
	a.Quotes.Advance()
	if publish {
		a.News.Publish(seed)
	}
	a.Engine.Tick()
}
