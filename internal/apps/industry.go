package apps

import (
	"fmt"
	"strings"

	"repro/internal/concepts"
	"repro/internal/pib"
	"repro/internal/transform"
	"repro/internal/web"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

// PowerTrading is the application of Section 6.7: spot market prices for
// electric power integrated with weather and water-level information and
// delivered to the trader's risk-management systems.
type PowerTrading struct {
	Web    *web.Web
	Site   *web.PowerSite
	Engine *transform.Engine
	Out    *transform.Collector
}

// NewPowerTrading builds the service.
func NewPowerTrading(seed int64) (*PowerTrading, error) {
	sim := web.New()
	site := web.NewPowerSite(seed)
	site.Register(sim, "exchange.example.com")
	app := &PowerTrading{Web: sim, Site: site, Engine: transform.NewEngine()}

	spot := &transform.WrapperSource{
		CompName: "wrap-spot",
		Fetcher:  sim,
		Wrapper: lixto.MustCompile(`
page(S, X) <- document("exchange.example.com/spot.html", S), subelem(S, .body, X)
hour(S, X) <- page(_, S), subelem(S, (?.tr, [(class, hour, exact)]), X)
h(S, X) <- hour(_, S), subelem(S, (?.td, [(class, h, exact)]), X)
eur(S, X) <- hour(_, S), subelem(S, (?.td, [(class, eur, exact)]), X)
`, lixto.WithDesign(&pib.Design{Auxiliary: map[string]bool{"document": true, "page": true}, RootName: "spot"})),
	}
	weather := &transform.WrapperSource{
		CompName: "wrap-weather",
		Fetcher:  sim,
		Wrapper: lixto.MustCompile(`
page(S, X) <- document("exchange.example.com/weather.html", S), subelem(S, .body, X)
cond(S, X) <- page(_, S), subelem(S, (?.span, [(class, cond, exact)]), X)
temp(S, X) <- page(_, S), subelem(S, (?.span, [(class, temp, exact)]), X)
level(S, X) <- page(_, S), subelem(S, (?.span, [(class, level, exact)]), X)
`, lixto.WithDesign(&pib.Design{Auxiliary: map[string]bool{"document": true, "page": true}, RootName: "weather"})),
	}
	integ := &transform.Integrator{CompName: "merge", Expect: []string{"wrap-spot", "wrap-weather"}}
	report := &transform.Transformer{CompName: "report", Fn: powerReport}
	app.Out = &transform.Collector{CompName: "risk"}
	for _, c := range []transform.Component{spot, weather, integ, report, app.Out} {
		if err := app.Engine.Add(c); err != nil {
			return nil, err
		}
	}
	for _, e := range [][2]string{
		{"wrap-spot", "merge"}, {"wrap-weather", "merge"},
		{"merge", "report"}, {"report", "risk"},
	} {
		if err := app.Engine.Connect(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return app, nil
}

// powerReport aggregates the 24 hourly prices and attaches the weather
// signals used by the trading models.
func powerReport(merged *xmlenc.Node) (*xmlenc.Node, error) {
	var min, max, sum float64
	n := 0
	min = 1e18
	for _, h := range merged.Find("hour") {
		v, ok := concepts.ParseNumber(strings.TrimSuffix(strings.TrimSpace(textOf(h.FirstChild("eur"))), " EUR"))
		if !ok {
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("no spot prices")
	}
	out := xmlenc.NewElement("powerreport")
	out.AppendTextElement("min", fmt.Sprintf("%.2f", min))
	out.AppendTextElement("max", fmt.Sprintf("%.2f", max))
	out.AppendTextElement("avg", fmt.Sprintf("%.2f", sum/float64(n)))
	for _, w := range merged.Find("weather") {
		out.AppendTextElement("condition", strings.TrimSpace(textOf(w.FirstChild("cond"))))
		out.AppendTextElement("waterlevel", strings.TrimSpace(textOf(w.FirstChild("level"))))
	}
	return out, nil
}

// Step advances the market and ticks.
func (a *PowerTrading) Step() {
	a.Site.Advance()
	a.Engine.Tick()
}

// Viticulture is the B2C portal of Section 6.4: regional pest-control
// advice and vine news, personalized by region.
type Viticulture struct {
	Web    *web.Web
	Engine *transform.Engine
	Out    *transform.Collector
}

// NewViticulture builds the portal for the given regions.
func NewViticulture(regions []string) (*Viticulture, error) {
	sim := web.New()
	(&web.VitiSite{Regions: regions}).Register(sim, "wine.example.com")
	app := &Viticulture{Web: sim, Engine: transform.NewEngine()}
	var expect []string
	for _, region := range regions {
		name := "wrap-" + strings.ToLower(region)
		src := &transform.WrapperSource{
			CompName: name,
			Fetcher:  sim,
			Wrapper: lixto.MustCompile(fmt.Sprintf(`
page(S, X) <- document("wine.example.com/%s.html", S), subelem(S, .body, X)
region(S, X) <- page(_, S), subelem(S, ?.h1, X)
pest(S, X) <- page(_, S), subelem(S, (?.li, [(class, pest, exact)]), X)
news(S, X) <- page(_, S), subelem(S, (?.p, [(class, item, exact)]), X)
`, strings.ToLower(region)), lixto.WithDesign(&pib.Design{Auxiliary: map[string]bool{"document": true, "page": true}, RootName: "regionreport"})),
		}
		if err := app.Engine.Add(src); err != nil {
			return nil, err
		}
		expect = append(expect, name)
	}
	integ := &transform.Integrator{CompName: "merge", Expect: expect, RootName: "portal"}
	app.Out = &transform.Collector{CompName: "site"}
	if err := app.Engine.Add(integ); err != nil {
		return nil, err
	}
	if err := app.Engine.Add(app.Out); err != nil {
		return nil, err
	}
	for _, e := range expect {
		if err := app.Engine.Connect(e, "merge"); err != nil {
			return nil, err
		}
	}
	if err := app.Engine.Connect("merge", "site"); err != nil {
		return nil, err
	}
	return app, nil
}

// AutomotiveMonitor is the B2B application of Section 6.5/6.6: RFQs on a
// customer portal and competitor prices are gathered automatically;
// deliveries happen only on change, replacing manual browsing.
type AutomotiveMonitor struct {
	Web      *web.Web
	Portal   *web.PortalSite
	Auction  *web.AuctionSite
	Engine   *transform.Engine
	RFQOut   *transform.Collector
	PriceOut *transform.Collector
}

// NewAutomotiveMonitor builds the monitoring service.
func NewAutomotiveMonitor(seed int64) (*AutomotiveMonitor, error) {
	sim := web.New()
	portal := web.NewPortalSite(seed, 5)
	portal.Register(sim, "oem.example.com")
	auction := web.NewAuctionSite(seed, 20)
	auction.Register(sim, "competitor.example.com")
	app := &AutomotiveMonitor{Web: sim, Portal: portal, Auction: auction, Engine: transform.NewEngine()}

	rfqSrc := &transform.WrapperSource{
		CompName: "wrap-rfq",
		Fetcher:  sim,
		Wrapper: lixto.MustCompile(`
page(S, X) <- document("oem.example.com/rfq.html", S), subelem(S, .body, X)
rfq(S, X) <- page(_, S), subelem(S, (?.li, [(class, rfq, exact)]), X)
`, lixto.WithDesign(&pib.Design{Auxiliary: map[string]bool{"document": true, "page": true}, RootName: "rfqs"})),
	}
	priceSrc := &transform.WrapperSource{
		CompName: "wrap-prices",
		Fetcher:  sim,
		Wrapper: lixto.MustCompile(`
page(S, X) <- document("competitor.example.com/", S), subelem(S, .body, X)
item(S, X) <- page(_, S), subelem(S, (?.table, [(class, item, exact)]), X)
des(S, X) <- item(_, S), subelem(S, ?.a, X)
price(S, X) <- item(_, S), subelem(S, (?.td, [(elementtext, \var[Y].*, regvar)]), X), isCurrency(Y)
`, lixto.WithDesign(&pib.Design{Auxiliary: map[string]bool{"document": true, "page": true}, RootName: "competitor"})),
	}
	rfqChange := &transform.ChangeFilter{CompName: "rfq-change"}
	priceChange := &transform.ChangeFilter{CompName: "price-change"}
	app.RFQOut = &transform.Collector{CompName: "erp"}
	app.PriceOut = &transform.Collector{CompName: "bi"}
	for _, c := range []transform.Component{rfqSrc, priceSrc, rfqChange, priceChange, app.RFQOut, app.PriceOut} {
		if err := app.Engine.Add(c); err != nil {
			return nil, err
		}
	}
	for _, e := range [][2]string{
		{"wrap-rfq", "rfq-change"}, {"rfq-change", "erp"},
		{"wrap-prices", "price-change"}, {"price-change", "bi"},
	} {
		if err := app.Engine.Connect(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return app, nil
}
