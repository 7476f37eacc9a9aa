package apps

import (
	"runtime"
	"testing"

	"repro/internal/elog"
	"repro/internal/pib"
	"repro/internal/transform"
)

// TestAppWrappersConcurrencyDeterminism runs every wrapper source of the
// Section 6 applications at concurrency 1 and GOMAXPROCS, interpreted
// and compiled, and requires byte-identical serialized instance bases.
// With -race this also stresses the wave-parallel candidate generation
// on realistic production programs (simulated sites, crawling, pattern
// references), not just the hand-built fixtures in package elog.
func TestAppWrappersConcurrencyDeterminism(t *testing.T) {
	engines := map[string]*transform.Engine{}
	if app, err := NewNowPlaying(17); err == nil {
		engines["nowplaying"] = app.Engine
	} else {
		t.Fatal(err)
	}
	if app, err := NewFlightInfo(11, []Subscription{{Number: "OS105"}}); err == nil {
		engines["flightinfo"] = app.Engine
	} else {
		t.Fatal(err)
	}
	if app, err := NewPressClipping(5); err == nil {
		engines["pressclipping"] = app.Engine
	} else {
		t.Fatal(err)
	}
	if app, err := NewPowerTrading(9); err == nil {
		engines["powertrading"] = app.Engine
	} else {
		t.Fatal(err)
	}

	for appName, eng := range engines {
		for _, comp := range eng.Components() {
			src, ok := comp.(*transform.WrapperSource)
			if !ok {
				continue
			}
			for _, compiled := range []bool{false, true} {
				run := func(conc int) string {
					ev := elog.NewEvaluator(src.Fetcher)
					ev.MaxConcurrency = conc
					var base *pib.Base
					var err error
					if compiled {
						base, err = ev.RunCompiled(elog.MustCompile(src.Wrapper.Program()))
					} else {
						base, err = ev.Run(src.Wrapper.Program())
					}
					if err != nil {
						t.Fatalf("%s/%s compiled=%v conc=%d: %v", appName, src.CompName, compiled, conc, err)
					}
					return base.Dump()
				}
				want := run(1)
				if got := run(runtime.GOMAXPROCS(0)); got != want {
					t.Errorf("%s/%s compiled=%v: parallel base diverges from serial:\n--- serial ---\n%s--- parallel ---\n%s",
						appName, src.CompName, compiled, want, got)
				}
			}
		}
	}
}
