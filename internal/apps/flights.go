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

// FlightInfo is the travel-information service of Section 6.2: the user
// subscribes to flights (by number, or by departure and destination
// location); the system sends the actual flight status "but only if the
// status changed between consecutive requests" — realized by a
// ChangeFilter in front of the SMS deliverer.
type FlightInfo struct {
	Web    *web.Web
	Site   *web.FlightSite
	Engine *transform.Engine
	// SMS collects the delivered status messages.
	SMS *transform.Collector
}

// Subscription selects flights by number or by route.
type Subscription struct {
	Number   string
	From, To string
}

// NewFlightInfo builds the service for a set of subscriptions.
func NewFlightInfo(seed int64, subs []Subscription) (*FlightInfo, error) {
	sim := web.New()
	site := web.NewFlightSite(seed, 30)
	site.Register(sim, "airport.example.com")
	app := &FlightInfo{Web: sim, Site: site, Engine: transform.NewEngine()}

	src := &transform.WrapperSource{
		CompName: "wrap-flights",
		Fetcher:  sim,
		Wrapper: lixto.MustCompile(`
page(S, X) <- document("airport.example.com/departures.html", S), subelem(S, .body, X)
flight(S, X) <- page(_, S), subelem(S, (?.tr, [(class, flight, exact)]), X)
number(S, X) <- flight(_, S), subelem(S, (?.td, [(class, no, exact)]), X)
from(S, X) <- flight(_, S), subelem(S, (?.td, [(class, from, exact)]), X)
to(S, X) <- flight(_, S), subelem(S, (?.td, [(class, to, exact)]), X)
time(S, X) <- flight(_, S), subelem(S, (?.td, [(class, time, exact)]), X)
status(S, X) <- flight(_, S), subelem(S, (?.td, [(class, status, exact)]), X)
`, lixto.WithDesign(&pib.Design{Auxiliary: map[string]bool{"document": true, "page": true}, RootName: "departures"})),
	}
	if err := app.Engine.Add(src); err != nil {
		return nil, err
	}
	filter := &transform.Transformer{CompName: "subscribed", Fn: func(doc *xmlenc.Node) (*xmlenc.Node, error) {
		out := xmlenc.NewElement("alerts")
		for _, f := range doc.Find("flight") {
			num := strings.TrimSpace(textOf(f.FirstChild("number")))
			from := strings.TrimSpace(textOf(f.FirstChild("from")))
			to := strings.TrimSpace(textOf(f.FirstChild("to")))
			for _, sub := range subs {
				if (sub.Number != "" && sub.Number == num) ||
					(sub.Number == "" && sub.From == from && sub.To == to) {
					a := out.AppendElement("alert")
					a.AppendTextElement("flight", num)
					a.AppendTextElement("status", strings.TrimSpace(textOf(f.FirstChild("status"))))
					break
				}
			}
		}
		if len(out.Children) == 0 {
			return nil, nil
		}
		return out, nil
	}}
	change := &transform.ChangeFilter{CompName: "onchange"}
	app.SMS = &transform.Collector{CompName: "sms"}
	for _, c := range []transform.Component{filter, change, app.SMS} {
		if err := app.Engine.Add(c); err != nil {
			return nil, err
		}
	}
	for _, e := range [][2]string{{"wrap-flights", "subscribed"}, {"subscribed", "onchange"}, {"onchange", "sms"}} {
		if err := app.Engine.Connect(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return app, nil
}

// Step advances the airport's state and polls once.
func (a *FlightInfo) Step(advance bool) {
	if advance {
		a.Site.Advance()
	}
	a.Engine.Tick()
}

// LastMessage formats the most recent SMS, or "".
func (a *FlightInfo) LastMessage() string {
	last := a.SMS.Latest()
	if last == nil {
		return ""
	}
	var parts []string
	for _, alert := range last.Find("alert") {
		parts = append(parts, fmt.Sprintf("%s: %s",
			textOf(alert.FirstChild("flight")), textOf(alert.FirstChild("status"))))
	}
	return strings.Join(parts, "; ")
}
