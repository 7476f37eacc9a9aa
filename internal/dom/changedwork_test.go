package dom_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/elog"
	"repro/internal/htmlparse"
	"repro/internal/nodeset"
	"repro/internal/pib"
)

// churnedCatalogue is version v of a catalogue of the given number of
// sections, the benchmark's page shape: one SALE row per section, and
// version v (>= 1) rewrites the three sections from 3v on (mod
// sections), with one row more or less than the version before, so
// that the nodes after them move.
func churnedCatalogue(sections, v int) string {
	var b strings.Builder
	b.WriteString("<html><body>")
	for s := 0; s < sections; s++ {
		stamp, rows := 0, 24
		if d := (s - 3*v%sections + sections) % sections; v > 0 && d < 3 {
			stamp, rows = v, 23+v%3
		}
		b.WriteString(`<div class="section"><table>`)
		for r := 0; r < rows; r++ {
			sale := ""
			if r == 0 {
				sale = "SALE "
			}
			fmt.Fprintf(&b, `<tr><td class="name">%sitem %d.%d @%d</td><td class="price">$ %d.50</td></tr>`, sale, s, r, stamp, 10+(s+r+stamp)%90)
		}
		b.WriteString("</table></div>")
	}
	b.WriteString("</body></html>")
	return b.String()
}

// TestChangedPageWorkIsFlat extracts catalogue pages of 20, 40, 80 and
// 160 sections, three sections changed per version, the way a polled
// wrapper does: each version's tree warmed from the previous one's
// (WarmFrom, which splices it) and its base maintained from the
// previous base. Per changed extraction it counts the nodes the axis
// images visit (nodeset.Visited), the bits set node by node into label
// and kind bitsets and the hashMix calls of the splice (SpliceWork).
// Each count must be flat in the page: at 160 sections at most 1.25×
// its count at 20. What is left out is the O(|dom|) term a changed page
// still pays — the copy of prev's columns and the shift of the columns
// past the window (source offsets, and node ids when the node count
// changed) — and the |dom|/64-word set operations of the matcher. A
// sweeping Descendants or a buildBits after the splice fails it.
func TestChangedPageWorkIsFlat(t *testing.T) {
	const versions = 3
	cp := elog.MustCompile(elog.MustParse(catalogueProgram))
	what := [3]string{"axis node visits", "bitset bits set", "splice hashMix calls"}
	var first [3]float64
	for _, sections := range []int{20, 40, 80, 160} {
		ev := elog.NewEvaluator(nil)
		var prevTree *dom.Tree
		var prevBase *pib.Base
		var sum [3]int64
		for v := 0; v <= versions; v++ {
			tree := htmlparse.Parse(churnedCatalogue(sections, v))
			visits := nodeset.Visited()
			bits, mixes := dom.SpliceWork()
			tree.WarmFrom(prevTree)
			ev.Fetcher = elog.MapFetcher{"bench.example.com/catalogue": tree}
			base, err := ev.RunMaintained(cp, prevBase)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(base.Instances("name")); n != sections {
				t.Fatalf("%d sections, version %d: %d names, want one per section", sections, v, n)
			}
			if v > 0 {
				bits1, mixes1 := dom.SpliceWork()
				sum[0] += nodeset.Visited() - visits
				sum[1] += bits1 - bits
				sum[2] += mixes1 - mixes
			}
			prevTree, prevBase = tree, base
		}
		if st := cp.Incremental(); st.EvalFallbacks != 0 {
			t.Fatalf("%d sections: %d maintained evaluations fell back to full ones", sections, st.EvalFallbacks)
		}
		for i, s := range sum {
			per := float64(s) / versions
			t.Logf("%3d sections (%5d nodes): %s per changed extraction: %.0f", sections, prevTree.Size(), what[i], per)
			if sections == 20 {
				first[i] = per
			} else if per > 1.25*first[i] {
				t.Errorf("%d sections: %.0f %s per changed extraction, over 1.25× the %.0f at 20 sections",
					sections, per, what[i], first[i])
			}
		}
	}
}
