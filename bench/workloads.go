package main

import (
	"fmt"
	"strings"
	"time"

	"repro/bench/upstream"
)

// workload is one traffic mix: a fleet of wrappers over generated
// upstream pages plus the clients that consume their results.
type workload struct {
	name string
	// fleet wrappers are registered at set-up, each over its own page
	// unless sharedURL puts them all on one.
	fleet     int
	sharedURL bool
	spec      upstream.Spec
	// interval is the scheduled tick period; 0 registers the fleet
	// on-demand (it never ticks).
	interval time.Duration
	// frozen keeps the upstream at one version through warm-up and the
	// measured window (0% churn); it thaws afterwards so delivery can
	// be timed on the first changes after the quiet period.
	frozen bool
	// sharedCache runs the server with Config.SharedCache (freshness
	// window = interval/2) as lixtoserver does for shared pages.
	sharedCache bool
	// oneshot replaces the poller and the watchers with one closed-loop
	// control-plane client (register, extract x20, read, delete).
	oneshot bool
}

// catalogue is the 60x40 page of E24/E26: ~12k nodes, ~180 KB, one
// SALE row per section (~5 KB of extracted XML).
func catalogue(window int) upstream.Spec {
	return upstream.Spec{Sections: 60, Rows: 40, Window: window}
}

// workloads is the canonical set. BENCHMARK.json carries each one's
// reason; bench/README.md has the layer predictions.
var workloads = []workload{
	{name: "churn0", fleet: 8, spec: catalogue(3), interval: 197 * time.Millisecond, frozen: true},
	{name: "churn5", fleet: 8, spec: catalogue(3), interval: 197 * time.Millisecond},
	{name: "churn100", fleet: 8, spec: catalogue(60), interval: 397 * time.Millisecond},
	{name: "wide5", fleet: 4, spec: upstream.Spec{Sections: 20, Rows: 40, Window: 1, AllSale: true},
		interval: 293 * time.Millisecond},
	{name: "fleet100", fleet: 100, sharedURL: true, spec: catalogue(3), interval: 997 * time.Millisecond, sharedCache: true},
	{name: "oneshot", fleet: 8, spec: catalogue(3), oneshot: true},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// wrapperName and pageURL name the i-th fleet member and its page.
func (w workload) wrapperName(i int) string { return fmt.Sprintf("w%d", i) }

func (w workload) pageURL(i int) string {
	if w.sharedURL {
		return "catalogue.example.com/shared"
	}
	return fmt.Sprintf("catalogue.example.com/p%d", i)
}

// oneshotURL is the page every on-demand wrapper of the oneshot loop
// extracts from.
const oneshotURL = "catalogue.example.com/oneshot"

// urls lists every page the workload's site serves.
func (w workload) urls() []string {
	var out []string
	if w.sharedURL {
		out = append(out, w.pageURL(0))
	} else {
		for i := 0; i < w.fleet; i++ {
			out = append(out, w.pageURL(i))
		}
	}
	if w.oneshot {
		out = append(out, oneshotURL)
	}
	return out
}

// program is the E24/E26 catalogue wrapper over url: sections, the
// rows whose text matches SALE, and each such row's name and price.
func program(url string) string {
	return fmt.Sprintf(`page(S, X)    <- document(%q, S), subelem(S, .body, X)
section(S, X) <- page(_, S), subelem(S, (.div, [(class, section, exact)]), X)
row(S, X)     <- section(_, S), subelem(S, (?.tr, [(elementtext, .*SALE.*, regexp)]), X)
name(S, X)    <- row(_, S), subelem(S, (?.td, [(class, name, exact)]), X)
price(S, X)   <- row(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
`, url)
}

// The XML design every benchmark wrapper is registered with.
const designRoot = "catalogue"

var designAux = []string{"page", "section"}
