package server

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/web"
	"repro/internal/xmlenc"
)

const spliceProg = `
page(S, X) <- document("churn.test/cat", S), subelem(S, .body, X)
row(S, X)  <- page(_, S), subelem(S, ?.tr, X)
name(S, X) <- row(_, S), subelem(S, (?.td, [(class, name, exact)]), X)
`

// newSplicePipe builds a scheduled dynamic pipeline over a churning
// catalogue page at *version: each version bump rewrites exactly one
// row, leaving the rest byte-identical — the shape where incremental
// output reuses frozen row subtrees and the delivery encoder can splice
// their bytes.
func newSplicePipe(t *testing.T, name string, version *int) *dynPipeline {
	t.Helper()
	const rows = 16
	sim := web.New()
	sim.SetPage("churn.test/cat", func() string {
		var sb strings.Builder
		sb.WriteString("<html><body><table>")
		for r := 0; r < rows; r++ {
			v := 0
			if r == *version%rows {
				v = *version
			}
			fmt.Fprintf(&sb, `<tr><td class="name">catalogue item %d revision %d</td></tr>`, r, v)
		}
		sb.WriteString("</table></body></html>")
		return sb.String()
	})
	ps, err := New(Config{DynamicFetcher: sim}).newDynamic(
		wrapperSpec{Name: name, Program: spliceProg, Auxiliary: []string{"page"}})
	if err != nil {
		t.Fatal(err)
	}
	return ps.p.(*dynPipeline)
}

// TestDeliverySpliceEncoding pins the splice path end to end through
// the real scheduled route: a churning wrapper serves bodies and ETags
// byte-identical to a stateless encode of a freshly built pipeline's
// delivery of the same page version, while its delivery encoder
// splices reused byte ranges — and the counter is visible in the
// GET /v1/wrappers listing.
func TestDeliverySpliceEncoding(t *testing.T) {
	sInc := New(Config{})
	version := 0
	pInc := newSplicePipe(t, "cat", &version)
	if err := registerDynamic(sInc, pInc, 0, true); err != nil {
		t.Fatal(err)
	}
	tsInc := httptest.NewServer(sInc.Handler())
	defer tsInc.Close()

	for i := 0; i < 6; i++ {
		if err := pInc.Tick(); err != nil {
			t.Fatal(err)
		}
		_, bodyInc, hdrInc := do(t, "GET", tsInc.URL+"/cat", nil)
		if !strings.Contains(bodyInc, "<row>") || !strings.Contains(bodyInc, "catalogue item") {
			t.Fatalf("round %d: extraction produced no rows (vacuous differential):\n%s", i, bodyInc)
		}
		cold := newSplicePipe(t, "cat", &version)
		if err := cold.Tick(); err != nil {
			t.Fatal(err)
		}
		full := xmlenc.MarshalIndentBytes(cold.out.Latest())
		if bodyInc != string(full) {
			t.Fatalf("round %d: spliced body diverges from full re-encode:\n--- spliced ---\n%s--- full ---\n%s",
				i, bodyInc, full)
		}
		if want := etagOf(fnv64a(full), 'x'); hdrInc.Get("ETag") != want {
			t.Fatalf("round %d: ETag %q vs %q", i, hdrInc.Get("ETag"), want)
		}
		version++
	}

	if got := sInc.readPipe("cat").deliver.splicedBytes(); got == 0 {
		t.Error("incremental server spliced no bytes over 6 one-row-churn rounds")
	}

	// The counter surfaces through the public listing.
	var listing struct {
		Wrappers []struct {
			Name       string `json:"name"`
			Extraction struct {
				SplicedBytes   uint64  `json:"encode_spliced_bytes"`
				OutputReused   uint64  `json:"output_reused_nodes"`
				InstancesSame  uint64  `json:"instances_unchanged"`
				InstancesAdded uint64  `json:"instances_added"`
				Grafted        uint64  `json:"instances_grafted"`
				Fallbacks      *uint64 `json:"eval_fallbacks"`
				BaseInstances  uint64  `json:"base_instances"`
				BaseBytes      uint64  `json:"base_bytes"`
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
		// One row changes per round: the others' names are grafted from
		// the previous tick's base, and nothing falls back.
		if w.Extraction.Grafted == 0 || w.Extraction.Fallbacks == nil || *w.Extraction.Fallbacks != 0 {
			t.Errorf("listing maintenance counters: instances_grafted = %d, eval_fallbacks present and 0 = %v: %s",
				w.Extraction.Grafted, w.Extraction.Fallbacks != nil && *w.Extraction.Fallbacks == 0, body)
		}
		// The retained base: a gauge, and never less than the instances.
		if n, b := w.Extraction.BaseInstances, w.Extraction.BaseBytes; n == 0 || b < 100*n || b > 400*n {
			t.Errorf("listing base_instances = %d, base_bytes = %d: %s", n, b, body)
		}
	}
	if !found {
		t.Fatalf("wrapper cat missing from listing: %s", body)
	}

	// One-shot extractions render through the same SDK wrapper as the
	// scheduled source: the delivery encoder keeps splicing and the
	// shared output cache's counters keep moving.
	spliceBefore := sInc.readPipe("cat").deliver.splicedBytes()
	reusedBefore := pInc.ExtractionStats().OutputReusedNodes
	for i := 0; i < 3; i++ {
		version++
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
