package apps

import (
	"runtime"
	"testing"

	"repro/internal/elog"
	"repro/internal/transform"
	"repro/internal/web"
)

// TestAppWrappersIncrementalDifferential runs every wrapper source of
// the Section 6 applications over a randomized mutation sequence of its
// own pages and requires the incremental evaluator (one compiled
// program + shared match cache held across versions) to produce an
// instance base byte-identical to a cold evaluation of each version —
// under content-only churn, where subtree reuse must engage, and under
// structural churn, where mutated trees fall out of document order and
// the evaluator must fall back to full matching.
func TestAppWrappersIncrementalDifferential(t *testing.T) {
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
	if app, err := NewViticulture([]string{"wachau", "kamptal"}); err == nil {
		engines["viticulture"] = app.Engine
	} else {
		t.Fatal(err)
	}
	if app, err := NewAutomotiveMonitor(23); err == nil {
		engines["automotive"] = app.Engine
	} else {
		t.Fatal(err)
	}

	var totalHits uint64
	for appName, eng := range engines {
		for _, comp := range eng.Components() {
			src, ok := comp.(*transform.WrapperSource)
			if !ok {
				continue
			}
			for _, grow := range []bool{false, true} {
				churn := &web.ChurnFetcher{Inner: src.Fetcher, Seed: 31, PerStep: 3, Grow: grow}
				cp := elog.MustCompile(src.Wrapper.Program())
				shared := elog.NewMatchCache()
				for step := 0; step < 4; step++ {
					cold := elog.NewEvaluator(churn)
					coldBase, err := cold.RunCompiled(elog.MustCompile(src.Wrapper.Program()))
					if err != nil {
						t.Fatalf("%s/%s grow=%v step %d cold: %v", appName, src.CompName, grow, step, err)
					}
					inc := elog.NewEvaluator(churn)
					inc.MaxConcurrency = runtime.GOMAXPROCS(0)
					inc.Incremental = true
					inc.Shared = shared
					incBase, err := inc.RunCompiled(cp)
					if err != nil {
						t.Fatalf("%s/%s grow=%v step %d incremental: %v", appName, src.CompName, grow, step, err)
					}
					if want, got := coldBase.Dump(), incBase.Dump(); got != want {
						t.Errorf("%s/%s grow=%v step %d: incremental base diverges from cold evaluation:\n--- cold ---\n%s--- incremental ---\n%s",
							appName, src.CompName, grow, step, want, got)
					}
					churn.Advance()
				}
				if !grow {
					totalHits += cp.Incremental().SubtreeHits
				}
			}
		}
	}
	if totalHits == 0 {
		t.Error("no subtree hits across any application wrapper under content-only churn")
	}
}
