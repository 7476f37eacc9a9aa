package elog_test

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/elog"
	"repro/internal/pib"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

// TestSealedBaseBudget measures what a retained instance base holds on
// the benchmark's 60×40 page (242 instances, fleet100's wrapper): the
// heap growth around 64 held bases over one shared tree. (The output
// cache that retains a base keeps 8 more bytes per instance beside it,
// the sorted content hashes.) The figure was ~435 B/instance while the
// base kept its dedup table and its instances their memo fields.
// Base.Bytes, the estimate /statusz reports, must land near the
// measurement. (internal/pib's test of the same name holds the sizes of
// an instance and its dedup key.)
func TestSealedBaseBudget(t *testing.T) {
	fetch := newCatalogue(60, 40, 3, false).next()
	cp := elog.MustCompile(elog.MustParse(catalogueProgram))
	eval := func() *pib.Base {
		base, err := elog.NewEvaluator(fetch).RunCompiled(cp)
		if err != nil {
			t.Fatal(err)
		}
		return base
	}
	eval() // fills the match caches and the slab hint
	held := make([]*pib.Base, 64)
	before := liveHeap()
	for i := range held {
		held[i] = eval()
	}
	grown := float64(liveHeap()-before) / float64(len(held))
	n := held[0].Count()
	per := grown / float64(n)
	t.Logf("%d instances: %.0f bytes retained per base, %.1f per instance; Bytes() = %d", n, grown, per, held[0].Bytes())
	if n != 242 {
		t.Fatalf("%d instances, want 242", n)
	}
	if per > 170 {
		t.Errorf("%.1f bytes retained per instance, budget 170", per)
	}
	if est := float64(held[0].Bytes()); est < 0.8*grown || est > 1.2*grown {
		t.Errorf("Bytes() = %.0f, measured %.0f: the estimate is off by more than 20%%", est, grown)
	}
	runtime.KeepAlive(held)
	runtime.KeepAlive(fetch)
}

// liveHeap is the heap in use after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFleetMemoBudget holds a fleet's match results to one copy: 100
// separately compiled catalogue wrappers evaluate 30 versions of the
// 60×40 page against one shared MatchCache, and once the cache is
// dropped each program may retain no more than 2 KB beyond a fresh
// compile. The figure was ~17 KB per program while every compiled path
// kept its own memo tables beside the shared cache.
func TestFleetMemoBudget(t *testing.T) {
	const fleet, versions = 100, 30
	cat := newCatalogue(60, 40, 3, false)
	compile := func() *elog.CompiledProgram { return elog.MustCompile(elog.MustParse(catalogueProgram)) }
	// One throwaway evaluation first, so nothing initialized on first use
	// lands in the measurement.
	if _, err := elog.NewEvaluator(cat.next()).RunCompiled(compile()); err != nil {
		t.Fatal(err)
	}
	cps := make([]*elog.CompiledProgram, fleet)
	for i := range cps {
		cps[i] = compile()
	}
	before := liveHeap()
	shared := elog.NewMatchCache()
	for v := 0; v < versions; v++ {
		fetch := cat.next()
		for _, cp := range cps {
			ev := elog.NewEvaluator(fetch)
			ev.Incremental, ev.Shared = true, shared
			if _, err := ev.RunCompiled(cp); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := shared.Report()
	shared = nil
	per := (float64(liveHeap()) - float64(before)) / fleet
	t.Logf("%d programs × %d versions: %.0f bytes retained per program; shared cache %d entries, ~%d bytes",
		fleet, versions, per, st.Entries, st.Bytes)
	if st.Hits == 0 {
		t.Error("the fleet never hit the shared cache")
	}
	if per > 2048 {
		t.Errorf("%.0f bytes retained per program beyond a fresh compile, budget 2048", per)
	}
	runtime.KeepAlive(cps)
}

// TestSealEquivalence holds the sealed base Run and RunCompiled return
// to the unsealed one the reference evaluator (RunNaive, export_test.go)
// builds, on every examples/ wrapper, every Section 6 application
// wrapper and the benchmark's two catalogue pages, over ten ticks (the
// catalogue pages churn between them): the same Dump; Transform of the
// reference and TransformIncremental of the sealed base through one
// output cache byte for byte; and Add on the sealed base deduplicating
// exactly as on the unsealed one.
//
// The same ticks also run through one lixto.Wrapper with incremental
// output, whose every extraction is maintained from the base it
// rendered last (RunMaintained): its base must Dump as the reference's
// and its XML match byte for byte, and on the catalogue pages, where
// most of each tick is unchanged, it must graft from the second tick on
// (else the graft path would not be under test at all).
func TestSealEquivalence(t *testing.T) {
	var cases []fixpointCase
	for _, ex := range exampleWrappers {
		cases = append(cases, fixpointCase{name: "examples/" + ex.name, prog: elog.MustParse(ex.prog),
			fetcher: func() elog.Fetcher { return ex.site() }})
	}
	cases = append(cases, appWrappers(t)...)
	for _, c := range []struct {
		name                   string
		sections, rows, window int
		allSale                bool
	}{{"catalogue/60x40", 60, 40, 3, false}, {"catalogue/20x40-all-sale", 20, 40, 1, true}} {
		cat := newCatalogue(c.sections, c.rows, c.window, c.allSale)
		cases = append(cases, fixpointCase{name: c.name, prog: elog.MustParse(catalogueProgram),
			fetcher: func() elog.Fetcher { return cat.next() }})
	}
	d := &pib.Design{Auxiliary: map[string]bool{"document": true}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp := elog.MustCompile(tc.prog)
			oc := pib.NewOutputCache()
			w := lixto.MustCompile(tc.prog.String(), lixto.WithIncrementalOutput(true))
			for tick := 0; tick < 10; tick++ {
				f := tc.fetcher()
				want, err := elog.NewEvaluator(f).RunNaive(tc.prog, nil)
				if err != nil {
					t.Fatalf("tick %d reference: %v", tick, err)
				}
				ev := elog.NewEvaluator(f)
				ev.Incremental = true
				got, err := ev.RunCompiled(cp)
				if err != nil {
					t.Fatalf("tick %d: %v", tick, err)
				}
				ref := want.Dump()
				if got.Dump() != ref || got.Count() != want.Count() || got.Count() < 2 {
					t.Fatalf("tick %d: sealed base diverges from the unsealed reference:\n--- reference ---\n%s--- got ---\n%s", tick, want.Dump(), got.Dump())
				}
				// The maintained wrapper, before addAll adds to the bases.
				fresh := xmlenc.MarshalIndent(d.Transform(got))
				grafted := w.Compiled().Incremental().InstancesGrafted
				res, err := w.Extract(context.Background(), lixto.Origin(), lixto.WithFetcher(f))
				if err != nil {
					t.Fatalf("tick %d maintained: %v", tick, err)
				}
				if res.Base.Dump() != ref {
					t.Fatalf("tick %d: maintained base diverges from the reference:\n--- reference ---\n%s--- maintained ---\n%s", tick, ref, res.Base.Dump())
				}
				if inc := xmlenc.MarshalIndent(res.XML()); inc != fresh {
					t.Fatalf("tick %d: maintained output diverges:\n%s\nvs\n%s", tick, inc, fresh)
				}
				if now := w.Compiled().Incremental().InstancesGrafted; strings.HasPrefix(tc.name, "catalogue/") && tick > 0 && now == grafted {
					t.Fatalf("tick %d: the maintained evaluation grafted nothing", tick)
				}

				addAll(t, want)
				addAll(t, got)
				if got.Dump() != want.Dump() {
					t.Fatalf("tick %d: bases diverge after Add:\n--- reference ---\n%s--- got ---\n%s", tick, want.Dump(), got.Dump())
				}
				plain := xmlenc.MarshalIndent(d.Transform(want))
				if inc := xmlenc.MarshalIndent(d.TransformIncremental(got, oc)); inc != plain {
					t.Fatalf("tick %d: incremental transform of the sealed base diverges:\n%s\nvs\n%s", tick, inc, plain)
				}
			}
		})
	}
}

// addAll re-adds a copy of every instance of b, which must all be
// refused in favour of the canonical instance, and then one new string
// instance under the first root twice, admitted once.
func addAll(t *testing.T, b *pib.Base) {
	t.Helper()
	n := b.Count()
	for _, p := range b.Patterns() {
		for _, in := range b.Instances(p) {
			dup := *in
			dup.Children = nil
			if got, added := b.AddCopy(&dup); added || got != in {
				t.Fatalf("%s#%d admitted a second time", in.Pattern, in.ID)
			}
		}
	}
	root := b.Roots[0]
	extra := pib.Instance{Pattern: "extra", Kind: pib.StringInstance, Doc: root.Doc, URL: root.URL, Text: "x", Parent: root}
	first, added := b.AddCopy(&extra)
	if again, dup := b.AddCopy(&extra); !added || dup || again != first || b.Count() != n+1 || int(first.ID) != n {
		t.Fatalf("a new instance after Seal: added=%v, then added=%v, count %d → %d", added, dup, n, b.Count())
	}
}
