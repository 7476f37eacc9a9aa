package upstream

import (
	"math"
	"testing"

	"repro/internal/htmlparse"
)

var catalogue = Spec{Sections: 60, Rows: 40, Window: 3}

func TestPageIsAPureFunction(t *testing.T) {
	const url = "catalogue.example.com/p0"
	for _, v := range []int{0, 1, 7, 20, 21, 137} {
		a, b := Page(42, catalogue, url, v), Page(42, catalogue, url, v)
		if a != b {
			t.Fatalf("version %d: two renders of one (seed, url, version) differ", v)
		}
		if Page(43, catalogue, url, v) == a {
			t.Errorf("version %d: seed 43 renders the same bytes as seed 42", v)
		}
		if Page(42, catalogue, "catalogue.example.com/p1", v) == a {
			t.Errorf("version %d: two URLs render the same bytes", v)
		}
	}
	if Page(42, catalogue, url, 5) == Page(42, catalogue, url, 6) {
		t.Error("consecutive versions render the same bytes")
	}
}

// The stateful walker must serve exactly the pages the pure function
// renders: the correctness gate recomputes references from
// (seed, url, version) alone.
func TestSiteWalksThePureVersions(t *testing.T) {
	for _, spec := range []Spec{catalogue, {Sections: 60, Rows: 40, Window: 60},
		{Sections: 20, Rows: 40, Window: 1, AllSale: true}, {Sections: 7, Rows: 3, Window: 3}} {
		const url = "u"
		site := NewSite(9, spec, url)
		for v := 1; v <= 50; v++ {
			pg, err := site.Next(url)
			if err != nil {
				t.Fatal(err)
			}
			if pg.Version != v {
				t.Fatalf("%+v: Next #%d returned version %d", spec, v, pg.Version)
			}
			if pg.HTML != Page(9, spec, url, v) {
				t.Fatalf("%+v: version %d: the walker's page differs from Page()", spec, v)
			}
			if got := StampOf([]byte(pg.HTML)); got != v {
				t.Fatalf("%+v: version %d carries stamp %d", spec, v, got)
			}
			if _, ok := site.Stamp(url, v); !ok {
				t.Fatalf("version %d has no fetch stamp", v)
			}
		}
	}
}

func TestFreezeHoldsTheVersion(t *testing.T) {
	const url = "u"
	site := NewSite(1, catalogue, url)
	first, _ := site.Next(url)
	site.Freeze()
	for i := 0; i < 3; i++ {
		pg, _ := site.Next(url)
		if pg.Version != first.Version || pg.HTML != first.HTML {
			t.Fatalf("frozen Next changed the page: version %d", pg.Version)
		}
	}
	site.Thaw()
	if pg, _ := site.Next(url); pg.Version != first.Version+1 {
		t.Fatalf("thawed Next returned version %d", pg.Version)
	}
	if _, err := site.Next("nowhere"); err == nil {
		t.Error("unknown URL did not fail")
	}
	if len(site.Stamps(url)) != 2 {
		t.Errorf("want 2 advance stamps, have %d", len(site.Stamps(url)))
	}
}

// The measured share of nodes that differ between consecutive versions
// is what the workloads are named after: 0, about 5%, and all of them.
func TestDirtyNodeRatio(t *testing.T) {
	for _, tc := range []struct {
		window int
		want   float64
	}{{0, 0}, {3, 0.05}, {60, 1}} {
		spec := Spec{Sections: 60, Rows: 40, Window: tc.window}
		const url = "u"
		site := NewSite(3, spec, url)
		pg, _ := site.Next(url)
		prev := htmlparse.Parse(pg.HTML)
		prev.Warm()
		if got, want := prev.Size(), spec.Nodes(); got != want {
			t.Fatalf("page has %d nodes, Spec.Nodes says %d", got, want)
		}
		for v := 0; v < 25; v++ {
			pg, _ = site.Next(url)
			cur := htmlparse.Parse(pg.HTML)
			cur.Warm()
			got := DirtyRatio(prev, cur)
			if math.Abs(got-tc.want) > 0.005 {
				t.Fatalf("window %d, step %d: dirty node ratio %.4f, want about %.2f", tc.window, v, got, tc.want)
			}
			prev = cur
		}
	}
}

func TestStampOf(t *testing.T) {
	for in, want := range map[string]int{
		"":                          -1,
		"no stamp here":             -1,
		"a @ b":                     -1,
		"item 1.2 @7":               7,
		"<n>x @12</n><n>y @3</n>":   12,
		"@0":                        0,
		"mail@example.com and @415": 415,
	} {
		if got := StampOf([]byte(in)); got != want {
			t.Errorf("StampOf(%q) = %d, want %d", in, got, want)
		}
	}
}
