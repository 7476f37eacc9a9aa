package apps

import (
	"bytes"
	"testing"

	"repro/internal/transform"
	"repro/internal/web"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

// TestAppWrappersOutputDifferential extends the incremental
// differential to the output layer: for every Section 6 application
// wrapper, a long-lived source with incremental matching, incremental
// output, and the splice-based encoder must serve bytes identical to a
// cold source that rebuilds and re-encodes everything, at every step of
// a lockstep churn sequence.
func TestAppWrappersOutputDifferential(t *testing.T) {
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

	var totalReused, totalSpliced uint64
	for appName, eng := range engines {
		for _, comp := range eng.Components() {
			src, ok := comp.(*transform.WrapperSource)
			if !ok {
				continue
			}
			for _, grow := range []bool{false, true} {
				churnInc := &web.ChurnFetcher{Inner: src.Fetcher, Seed: 31, PerStep: 3, Grow: grow}
				churnCold := &web.ChurnFetcher{Inner: src.Fetcher, Seed: 31, PerStep: 3, Grow: grow}
				// Both sides compile the app's program afresh: inc holds its
				// wrapper across the steps, cold starts from nothing each step.
				fresh := func(f *web.ChurnFetcher) *transform.WrapperSource {
					return &transform.WrapperSource{CompName: src.CompName, Fetcher: f,
						Wrapper: lixto.MustCompile(src.Wrapper.String(), lixto.WithDesign(src.Wrapper.Design()))}
				}
				inc := fresh(churnInc)
				enc := xmlenc.NewEncoder()
				for step := 0; step < 4; step++ {
					got, err := inc.Poll()
					if err != nil {
						t.Fatalf("%s/%s grow=%v step %d incremental: %v", appName, src.CompName, grow, step, err)
					}
					cold := fresh(churnCold)
					want, err := cold.Poll()
					if err != nil {
						t.Fatalf("%s/%s grow=%v step %d cold: %v", appName, src.CompName, grow, step, err)
					}
					coldBytes := xmlenc.MarshalIndentBytes(want[0])
					incBytes := enc.MarshalIndentBytes(got[0])
					if !bytes.Equal(incBytes, coldBytes) {
						t.Errorf("%s/%s grow=%v step %d: incremental+spliced bytes diverge from cold rebuild:\n--- cold ---\n%s--- incremental ---\n%s",
							appName, src.CompName, grow, step, coldBytes, incBytes)
					}
					churnInc.Advance()
					churnCold.Advance()
				}
				if !grow {
					st := inc.ExtractionStats()
					totalReused += st.OutputReusedNodes
					totalSpliced += enc.SplicedBytes()
				}
			}
		}
	}
	if totalReused == 0 {
		t.Error("no output nodes reused across any application wrapper under content-only churn")
	}
	if totalSpliced == 0 {
		t.Error("no encoded bytes spliced across any application wrapper under content-only churn")
	}
}
