package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spans []Span
		want  []time.Duration
	}{
		{"leaf", []Span{{Start: 10, End: 110, Parent: -1}}, []time.Duration{100}},
		{"nested", []Span{
			{Start: 0, End: 100, Parent: -1},
			{Start: 10, End: 60, Parent: 0},
			{Start: 20, End: 30, Parent: 1},
		}, []time.Duration{50, 40, 10}},
		{"adjacent children", []Span{
			{Start: 0, End: 100, Parent: -1},
			{Start: 0, End: 40, Parent: 0},
			{Start: 40, End: 90, Parent: 0},
		}, []time.Duration{10, 40, 50}},
		{"overlapping children are covered once", []Span{
			{Start: 0, End: 100, Parent: -1},
			{Start: 10, End: 50, Parent: 0},
			{Start: 30, End: 70, Parent: 0},
			{Start: 35, End: 45, Parent: 0}, // inside both
		}, []time.Duration{40, 40, 40, 10}},
		{"child clipped to its parent", []Span{
			{Start: 50, End: 100, Parent: -1},
			{Start: 40, End: 120, Parent: 0},
		}, []time.Duration{0, 80}},
		{"grandchildren do not count twice", []Span{
			{Start: 0, End: 100, Parent: -1},
			{Start: 0, End: 100, Parent: 0},
			{Start: 0, End: 100, Parent: 1},
		}, []time.Duration{0, 0, 100}},
	} {
		got := SelfTimes(tc.spans)
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("%s: span %d self time %d, want %d", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

func TestSelfTimesAddUpToTheRoot(t *testing.T) {
	spans := []Span{
		{Start: 0, End: 1000, Parent: -1},
		{Start: 100, End: 400, Parent: 0},
		{Start: 150, End: 250, Parent: 1},
		{Start: 500, End: 900, Parent: 0},
		{Start: 600, End: 700, Parent: 3},
		{Start: 700, End: 800, Parent: 3},
	}
	var sum time.Duration
	for _, d := range SelfTimes(spans) {
		sum += d
	}
	if sum != spans[0].Duration() {
		t.Errorf("self times add up to %d, the root lasts %d", sum, spans[0].Duration())
	}
}

func TestRecorderNestsAndLabels(t *testing.T) {
	r := New()
	r.SetTick(7)
	a := r.Begin("tick")
	b := r.Begin("parse")
	r.End(b)
	c := r.Begin("eval")
	d := r.Begin("match")
	r.End(d)
	r.End(c)
	r.End(a)
	r.SetTick(8)
	e := r.Begin("tick")
	r.End(e)

	spans := r.Spans()
	wantParent := []int{-1, 0, 0, 2, -1}
	wantTick := []int{7, 7, 7, 7, 8}
	if len(spans) != len(wantParent) {
		t.Fatalf("recorded %d spans, want %d", len(spans), len(wantParent))
	}
	for i, s := range spans {
		if s.Parent != wantParent[i] || s.Tick != wantTick[i] {
			t.Errorf("span %d (%s): parent %d tick %d, want %d and %d", i, s.Name, s.Parent, s.Tick, wantParent[i], wantTick[i])
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back []Span
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(spans) || back[3] != spans[3] {
		t.Errorf("JSON round trip lost spans: %+v", back)
	}
}

func TestDisabledRecorderRecordsNothing(t *testing.T) {
	r := New()
	r.Enabled = false
	r.End(r.Begin("x"))
	var none *Recorder
	none.End(none.Begin("x"))
	if len(r.Spans()) != 0 {
		t.Errorf("a disabled recorder kept %d spans", len(r.Spans()))
	}
}

var sink [][]byte

func TestAllocCountsAreExactAndSelfExcludesChildren(t *testing.T) {
	r := New()
	r.CountAllocs = true
	outer := r.Begin("outer")
	sink = append(sink[:0], make([]byte, 64)) // 1 object (sink's array is reused)
	inner := r.Begin("inner")
	for i := 0; i < 10; i++ {
		sink = append(sink, make([]byte, 64))
	}
	r.End(inner)
	r.End(outer)
	spans := r.Spans()
	if !spans[0].Counted || !spans[1].Counted {
		t.Fatal("spans were not counted")
	}
	// append may grow sink's array; the ten slices are the floor.
	if spans[1].Allocs < 10 || spans[1].Allocs > 16 {
		t.Errorf("inner span counted %d allocations, want about 10", spans[1].Allocs)
	}
	self := SelfAllocs(spans)
	if self[0] != spans[0].Allocs-spans[1].Allocs {
		t.Errorf("outer self allocations %d, want %d", self[0], spans[0].Allocs-spans[1].Allocs)
	}
	if self[1] != spans[1].Allocs {
		t.Errorf("leaf self allocations %d, want %d", self[1], spans[1].Allocs)
	}
}
