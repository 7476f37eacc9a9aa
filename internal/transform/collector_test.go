package transform

import (
	"strconv"
	"testing"

	"repro/internal/xmlenc"
)

func deliver(t *testing.T, c *Collector, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		doc := xmlenc.NewElement("d")
		doc.SetAttr("n", strconv.Itoa(i))
		if _, err := c.Process("", doc); err != nil {
			t.Fatal(err)
		}
	}
}

func nth(t *testing.T, doc *xmlenc.Node) int {
	t.Helper()
	v, _ := doc.Attr("n")
	i, err := strconv.Atoi(v)
	if err != nil {
		t.Fatalf("bad doc %s", xmlenc.Marshal(doc))
	}
	return i
}

func TestCollectorBelowCap(t *testing.T) {
	c := &Collector{CompName: "c", Retain: 8}
	deliver(t, c, 3)
	if c.Len() != 3 || c.Retained() != 3 {
		t.Fatalf("Len=%d Retained=%d", c.Len(), c.Retained())
	}
	docs := c.Docs()
	for i, d := range docs {
		if nth(t, d) != i+1 {
			t.Fatalf("Docs out of order: %v", docs)
		}
	}
	if nth(t, c.Latest()) != 3 {
		t.Fatalf("Latest = %d", nth(t, c.Latest()))
	}
}

func TestCollectorRingEviction(t *testing.T) {
	c := &Collector{CompName: "c", Retain: 4}
	deliver(t, c, 10)
	if c.Len() != 10 {
		t.Fatalf("Len = %d, want total deliveries 10", c.Len())
	}
	if c.Retained() != 4 {
		t.Fatalf("Retained = %d, want cap 4", c.Retained())
	}
	docs := c.Docs()
	want := []int{7, 8, 9, 10}
	for i, d := range docs {
		if nth(t, d) != want[i] {
			t.Fatalf("retained wrong docs: got %d at %d, want %d", nth(t, d), i, want[i])
		}
	}
	if nth(t, c.Latest()) != 10 {
		t.Fatalf("Latest = %d, want 10", nth(t, c.Latest()))
	}
}

func TestCollectorDefaultRetain(t *testing.T) {
	c := &Collector{CompName: "c"}
	deliver(t, c, DefaultRetain+10)
	if c.Len() != DefaultRetain+10 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.Retained() != DefaultRetain {
		t.Fatalf("Retained = %d, want DefaultRetain %d", c.Retained(), DefaultRetain)
	}
	if nth(t, c.Latest()) != DefaultRetain+10 {
		t.Fatalf("Latest = %d", nth(t, c.Latest()))
	}
}

func TestCollectorEmpty(t *testing.T) {
	c := &Collector{CompName: "c"}
	if c.Latest() != nil || len(c.Docs()) != 0 || c.Len() != 0 {
		t.Fatal("empty collector not empty")
	}
}

func TestCollectorJournal(t *testing.T) {
	c := &Collector{CompName: "c", Retain: 4}
	var vers []uint64
	c.Journal = func(v uint64, doc *xmlenc.Node) {
		if doc == nil {
			t.Fatal("journal got nil doc")
		}
		vers = append(vers, v)
	}
	deliver(t, c, 6)
	if len(vers) != 6 {
		t.Fatalf("journal called %d times, want 6", len(vers))
	}
	for i, v := range vers {
		if v != uint64(i+1) {
			t.Fatalf("journal versions %v, want 1..6", vers)
		}
	}
	// The journal owns the history: the collector keeps only the latest.
	if c.Len() != 6 || c.Retained() != 1 || nth(t, c.Latest()) != 6 {
		t.Fatalf("journaled collector: Len=%d Retained=%d Latest=%d", c.Len(), c.Retained(), nth(t, c.Latest()))
	}
}

func TestEngineErrorAccessors(t *testing.T) {
	e := NewEngine()
	e.MaxErrors = 2
	for i := 0; i < 5; i++ {
		e.logErr(errFor(i))
	}
	if len(e.Errors) != 2 {
		t.Fatalf("Errors log = %d entries, want capped at 2", len(e.Errors))
	}
	if e.ErrorCount() != 5 {
		t.Fatalf("ErrorCount = %d, want 5 (uncapped)", e.ErrorCount())
	}
	if e.LastError() == nil || e.LastError().Error() != "err 4" {
		t.Fatalf("LastError = %v", e.LastError())
	}
}

func errFor(i int) error { return &numErr{i} }

type numErr struct{ i int }

func (e *numErr) Error() string { return "err " + strconv.Itoa(e.i) }
