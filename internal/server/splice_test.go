package server

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/web"
	"repro/pkg/lixto"
)

const spliceProg = `
page(S, X) <- document("churn.test/cat", S), subelem(S, .body, X)
row(S, X)  <- page(_, S), subelem(S, ?.tr, X)
name(S, X) <- row(_, S), subelem(S, (?.td, [(class, name, exact)]), X)
`

// newSplicePipe builds a scheduled dynamic pipeline over a churning
// catalogue page: each bump rewrites exactly one row, leaving the rest
// byte-identical — the shape where incremental output reuses frozen
// row subtrees and the delivery encoder can splice their bytes.
func newSplicePipe(t *testing.T, name string, noIncOutput bool) (d *dynPipeline, bump func()) {
	t.Helper()
	const rows = 16
	version := 0
	sim := web.New()
	sim.SetPage("churn.test/cat", func() string {
		var sb strings.Builder
		sb.WriteString("<html><body><table>")
		for r := 0; r < rows; r++ {
			v := 0
			if r == version%rows {
				v = version
			}
			fmt.Fprintf(&sb, `<tr><td class="name">catalogue item %d revision %d</td></tr>`, r, v)
		}
		sb.WriteString("</table></body></html>")
		return sb.String()
	})
	w, err := lixto.Compile(spliceProg, lixto.WithAuxiliary("page"), lixto.WithFetcher(sim),
		lixto.WithIncrementalOutput(!noIncOutput))
	if err != nil {
		t.Fatal(err)
	}
	d, err = newDynPipeline(name, w, sim, nil, noIncOutput)
	if err != nil {
		t.Fatal(err)
	}
	return d, func() { version++ }
}

// TestDeliverySpliceEncoding pins the splice path end to end through
// the real scheduled route: a churning wrapper on a default server
// (incremental output on) serves bodies and ETags byte-identical to
// the same wrapper on a NoIncrementalOutput server, while only the
// former's delivery encoder splices reused byte ranges — and the
// counter is visible in the GET /v1/wrappers listing.
func TestDeliverySpliceEncoding(t *testing.T) {
	sInc := New(Config{})
	sFull := New(Config{NoIncrementalOutput: true})
	pInc, bumpInc := newSplicePipe(t, "cat", false)
	pFull, bumpFull := newSplicePipe(t, "cat", true)
	if err := sInc.RegisterDynamic(pInc, 0, true); err != nil {
		t.Fatal(err)
	}
	if err := sFull.RegisterDynamic(pFull, 0, true); err != nil {
		t.Fatal(err)
	}
	tsInc := httptest.NewServer(sInc.Handler())
	defer tsInc.Close()
	tsFull := httptest.NewServer(sFull.Handler())
	defer tsFull.Close()

	tick := func(s *Server, d *dynPipeline) {
		t.Helper()
		if err := d.Tick(); err != nil {
			t.Fatal(err)
		}
		if ps := s.readPipe(d.name); ps != nil {
			ps.deliver.snapshot(d.out)
		}
	}
	for i := 0; i < 6; i++ {
		tick(sInc, pInc)
		tick(sFull, pFull)
		_, bodyInc, hdrInc := do(t, "GET", tsInc.URL+"/cat", nil)
		_, bodyFull, hdrFull := do(t, "GET", tsFull.URL+"/cat", nil)
		if !strings.Contains(bodyInc, "<row>") || !strings.Contains(bodyInc, "catalogue item") {
			t.Fatalf("round %d: extraction produced no rows (vacuous differential):\n%s", i, bodyInc)
		}
		if bodyInc != bodyFull {
			t.Fatalf("round %d: spliced body diverges from full re-encode:\n--- spliced ---\n%s--- full ---\n%s",
				i, bodyInc, bodyFull)
		}
		if hdrInc.Get("ETag") != hdrFull.Get("ETag") {
			t.Fatalf("round %d: ETag %q vs %q", i, hdrInc.Get("ETag"), hdrFull.Get("ETag"))
		}
		bumpInc()
		bumpFull()
	}

	if got := sInc.readPipe("cat").deliver.splicedBytes(); got == 0 {
		t.Error("incremental server spliced no bytes over 6 one-row-churn rounds")
	}
	if got := sFull.readPipe("cat").deliver.splicedBytes(); got != 0 {
		t.Errorf("NoIncrementalOutput server spliced %d bytes; want 0", got)
	}

	// The counter surfaces through the public listing.
	var listing struct {
		Wrappers []struct {
			Name       string `json:"name"`
			Extraction struct {
				SplicedBytes   uint64 `json:"encode_spliced_bytes"`
				OutputReused   uint64 `json:"output_reused_nodes"`
				InstancesSame  uint64 `json:"instances_unchanged"`
				InstancesAdded uint64 `json:"instances_added"`
				BaseInstances  uint64 `json:"base_instances"`
				BaseBytes      uint64 `json:"base_bytes"`
			} `json:"extraction"`
		} `json:"wrappers"`
	}
	_, body, _ := do(t, "GET", tsInc.URL+"/v1/wrappers", nil)
	if err := jsonUnmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range listing.Wrappers {
		if w.Name != "cat" {
			continue
		}
		found = true
		if w.Extraction.SplicedBytes == 0 {
			t.Errorf("listing encode_spliced_bytes = 0: %s", body)
		}
		if w.Extraction.OutputReused == 0 || w.Extraction.InstancesSame == 0 {
			t.Errorf("listing output reuse counters empty: %s", body)
		}
		// The retained base: a gauge, and never less than the instances.
		if n, b := w.Extraction.BaseInstances, w.Extraction.BaseBytes; n == 0 || b < 100*n || b > 400*n {
			t.Errorf("listing base_instances = %d, base_bytes = %d: %s", n, b, body)
		}
	}
	if !found {
		t.Fatalf("wrapper cat missing from listing: %s", body)
	}

	// One-shot extractions reuse through the SDK wrapper itself (not
	// the scheduled source): the delivery encoder keeps splicing and
	// the wrapper's own output-cache counters surface in the stats.
	spliceBefore := sInc.readPipe("cat").deliver.splicedBytes()
	reusedBefore := pInc.ExtractionStats().OutputReusedNodes
	for i := 0; i < 3; i++ {
		bumpInc()
		if code, body, _ := do(t, "POST", tsInc.URL+"/v1/wrappers/cat/extract",
			map[string]any{}); code != 200 {
			t.Fatalf("one-shot extract %d: %d %s", i, code, body)
		}
	}
	if got := sInc.readPipe("cat").deliver.splicedBytes(); got <= spliceBefore {
		t.Errorf("one-shot extractions spliced nothing: %d -> %d bytes", spliceBefore, got)
	}
	if got := pInc.ExtractionStats().OutputReusedNodes; got <= reusedBefore {
		t.Errorf("one-shot output reuse not in stats: %d -> %d reused nodes", reusedBefore, got)
	}
}
