// Package trace is the benchmark's span recorder: spans are taken by
// the benchmark's own code around its calls into each layer, kept in
// memory, and written out when the run ends.
//
// A Recorder is for one goroutine: Begin pushes a span whose parent is
// the innermost open span, End closes it. A span's self time is its
// duration minus the part of that interval its direct children cover
// (overlapping children are counted once), so self times of a tick's
// spans add up to the root span. With CountAllocs on, every span also
// carries the runtime's malloc-count delta, which is exact when no
// other goroutine allocates.
package trace

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"time"
)

// Span is one recorded interval. Start and End are nanoseconds since
// the recorder was created.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Tick   int    `json:"tick"`
	// Allocs is the heap-object count allocated inside the span,
	// children included; valid only when Counted.
	Allocs  uint64 `json:"allocs,omitempty"`
	Counted bool   `json:"counted,omitempty"`
}

// Duration is the span's wall time.
func (s Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder collects spans. The zero value is disabled; use New.
type Recorder struct {
	// Enabled gates recording: while false, Begin returns -1 and End
	// ignores it, so an instrumented call path costs one branch.
	Enabled bool
	// CountAllocs additionally samples runtime.MemStats.Mallocs at
	// both ends of every span (two stop-the-world reads per span: use
	// it on ticks whose timings are discarded).
	CountAllocs bool

	epoch time.Time
	tick  int
	spans []Span
	open  []int
	ms    runtime.MemStats
}

// New returns an enabled recorder.
func New() *Recorder { return &Recorder{Enabled: true, epoch: time.Now()} }

// SetTick labels the spans recorded from now on.
func (r *Recorder) SetTick(id int) { r.tick = id }

// Begin opens a span under the innermost open one and returns its id.
func (r *Recorder) Begin(name string) int {
	if r == nil || !r.Enabled {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	// Grow the recorder's own slices before the counter is read, so a
	// span's count never includes the recorder's bookkeeping.
	r.spans = append(r.spans, Span{Name: name, Parent: parent, Tick: r.tick})
	r.open = append(r.open, id)
	if r.CountAllocs {
		runtime.ReadMemStats(&r.ms)
		r.spans[id].Allocs, r.spans[id].Counted = r.ms.Mallocs, true
	}
	r.spans[id].Start = int64(time.Since(r.epoch))
	return id
}

// End closes the span Begin returned. Spans close innermost first.
func (r *Recorder) End(id int) {
	if id < 0 {
		return
	}
	sp := &r.spans[id]
	sp.End = int64(time.Since(r.epoch))
	if sp.Counted {
		runtime.ReadMemStats(&r.ms)
		sp.Allocs = r.ms.Mallocs - sp.Allocs
	}
	if n := len(r.open); n > 0 && r.open[n-1] == id {
		r.open = r.open[:n-1]
	}
}

// Spans returns the recorded spans (the recorder's own slice).
func (r *Recorder) Spans() []Span { return r.spans }

// WriteJSON dumps every span as one JSON array.
func (r *Recorder) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(r.spans)
}

// SelfTimes returns, per span, its duration minus the part its direct
// children cover. Children are clipped to the parent's interval and
// overlapping children are merged before subtracting.
func SelfTimes(spans []Span) []time.Duration {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
			}
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		covered := int64(0)
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		end := s.Start
		for _, k := range ivs {
			if k.hi <= end {
				continue
			}
			covered += k.hi - max(k.lo, end)
			end = k.hi
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// SelfAllocs returns, per counted span, its allocation count minus its
// direct counted children's (0 for spans that were not counted).
func SelfAllocs(spans []Span) []uint64 {
	out := make([]uint64, len(spans))
	for i, s := range spans {
		if s.Counted {
			out[i] = s.Allocs
		}
	}
	for _, s := range spans {
		if s.Counted && s.Parent >= 0 && spans[s.Parent].Counted {
			out[s.Parent] -= min(out[s.Parent], s.Allocs)
		}
	}
	return out
}
