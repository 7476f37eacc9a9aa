package transform

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/elog"
	"repro/internal/pib"
	"repro/internal/web"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

// churnPage is a catalogue page wide enough that per-row contexts give
// the subtree layer something to reuse when only a few rows change.
func churnPage() string {
	var b strings.Builder
	b.WriteString("<html><body><table>\n")
	for i := 0; i < 24; i++ {
		fmt.Fprintf(&b, `<tr class="book"><td class="title">Volume %d</td><td class="price">%d.50</td></tr>`+"\n", i, 10+i)
	}
	b.WriteString("</table></body></html>")
	return b.String()
}

const churnProg = `page(S, X)  <- document("shop.example.com/churn", S), subelem(S, .body, X)
row(S, X)   <- page(_, S), subelem(S, ?.tr, X)
title(S, X) <- row(_, S), subelem(S, (?.td, [(class, title, exact)]), X)
price(S, X) <- row(_, S), subelem(S, (?.td, [(class, price, exact)]), X)`

func newChurnSource(fetch elog.Fetcher) *WrapperSource {
	return &WrapperSource{
		CompName: "churn",
		Fetcher:  fetch,
		Wrapper:  lixto.MustCompile(churnProg, lixto.WithDesign(&pib.Design{Auxiliary: map[string]bool{"document": true, "page": true, "row": true}})),
	}
}

// TestWrapperSourceIncrementalDifferential pins the tentpole guarantee
// at the transform level: a long-lived wrapper source polling a
// churning page, every tick maintained from the last, emits XML
// byte-identical to a cold full re-evaluation of every document version
// — under content-only churn (where the maintenance must graft) and
// under structural churn (where trees fall out of document order and
// the evaluator must fall back).
func TestWrapperSourceIncrementalDifferential(t *testing.T) {
	for _, grow := range []bool{false, true} {
		name := "content-churn"
		if grow {
			name = "structural-churn"
		}
		t.Run(name, func(t *testing.T) {
			sim := web.New()
			sim.SetStatic("shop.example.com/churn", churnPage())
			churnInc := &web.ChurnFetcher{Inner: sim, Seed: 7, Grow: grow}
			churnCold := &web.ChurnFetcher{Inner: sim, Seed: 7, Grow: grow}
			inc := newChurnSource(churnInc)
			for step := 0; step < 8; step++ {
				got, err := inc.Poll()
				if err != nil {
					t.Fatalf("step %d incremental: %v", step, err)
				}
				cold := newChurnSource(churnCold)
				want, err := cold.Poll()
				if err != nil {
					t.Fatalf("step %d cold: %v", step, err)
				}
				g, w := xmlenc.MarshalIndent(got[0]), xmlenc.MarshalIndent(want[0])
				if g != w {
					t.Fatalf("step %d: incremental output differs from cold re-evaluation:\n--- cold ---\n%s\n--- incremental ---\n%s", step, w, g)
				}
				churnInc.Advance()
				churnCold.Advance()
			}
			// Under content churn the unchanged rows' fields are grafted from
			// the previous tick's base (so the subtree match layer has no
			// clean rows left to answer); trees out of document order fall
			// back to full evaluation, counted.
			st := inc.ExtractionStats()
			if !grow && (st.InstancesGrafted == 0 || st.EvalFallbacks != 0) {
				t.Errorf("content-only churn: instances_grafted = %d, eval_fallbacks = %d; want grafts and no fallback", st.InstancesGrafted, st.EvalFallbacks)
			}
			if grow && (st.InstancesGrafted != 0 || st.EvalFallbacks == 0) {
				t.Errorf("structural churn: instances_grafted = %d, eval_fallbacks = %d; want fallbacks and no graft", st.InstancesGrafted, st.EvalFallbacks)
			}
			if st.SubtreeMisses == 0 || st.InstancesUnchanged == 0 {
				t.Error("incremental counters never moved")
			}
		})
	}
}
