package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/resultlog"
	"repro/internal/web"
)

// The seeded simulator: random sequences of operations against a
// running server on a fake clock, checked against a sequential model
// of what it must have delivered. The operations are register, PATCH
// interval, DELETE, page edit, one-shot extract, clock advance (which
// fires scheduled ticks, webhook retries and SSE heartbeats), restart
// (a clean shutdown, then New + Restore over the same data directory),
// webhook registration, webhook-sink failure and recovery, and SSE
// connect and drop. The invariants:
//
//   - no acknowledged delivery is lost: every version a response or a
//     scheduled tick produced stays readable with the content the
//     model predicts, across restarts when there is a store;
//   - versions have no gaps, or every gap is reported (Lixto-Gap,
//     event: gap);
//   - each webhook endpoint sees every version in its range at least
//     once, duplicates allowed, and its cursor never moves back;
//   - ETags are stable across restart;
//   - every SSE stream converges to the current snapshot.
//
// Each seed is a subtest, so a failing one reruns alone with
// -run 'TestSimStore/seed=N$'.

const (
	simSeeds = 25
	simSteps = 50
)

func TestSimMemory(t *testing.T) { runSims(t, false) }
func TestSimStore(t *testing.T)  { runSims(t, true) }

func runSims(t *testing.T, durable bool) {
	for seed := int64(1); seed <= simSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			newSim(t, seed, durable).run()
		})
	}
}

var simNames = []string{"sa", "sb", "sc"}

// simIntervals are the cadences a wrapper is registered or PATCHed
// with; 0 is on demand.
var simIntervals = []time.Duration{0, 10 * time.Millisecond, 50 * time.Millisecond}

type sim struct {
	t     *testing.T
	rng   *rand.Rand
	clk   *fakeClock
	web   *web.Web
	sink  *hookSink
	dir   string // the store's directory; "" without a store
	store *resultlog.Store
	s     *Server
	base  string
	stop  func()

	revs     map[string]int // page revision per name
	wrappers map[string]*simWrapper
	streams  []*simStream
	lastIDs  map[string]uint64 // newest SSE id seen per name
	hookSeq  int
	missing  string // what hooksCovered found missing
}

// simWrapper is the model of one registered wrapper.
type simWrapper struct {
	interval time.Duration // 0: on demand
	next     time.Time     // next scheduled tick
	ticks    uint64        // the server's tick count for it
	revs     []int         // page revision delivered at each version, revs[v-1]
	hooks    map[string]*simHook
}

type simHook struct {
	path   string // the sink path it posts to
	since  uint64
	cursor uint64 // the newest cursor observed
}

type simStream struct {
	name   string
	c      *sseClient
	start  uint64 // the presented cursor; 0 for a fresh stream
	ahead  uint64 // the head, when start was past it
	events []sseEvent
	ended  bool
}

func newSim(t *testing.T, seed int64, durable bool) *sim {
	m := &sim{
		t: t, rng: rand.New(rand.NewSource(seed)), clk: newFakeClock(), web: web.New(),
		sink: newHookSink(t), revs: map[string]int{}, wrappers: map[string]*simWrapper{},
		lastIDs: map[string]uint64{},
	}
	for _, name := range simNames {
		m.setPage(name)
	}
	if durable {
		m.dir = t.TempDir()
	}
	m.start()
	t.Cleanup(func() {
		if m.stop != nil {
			m.shutdown()
		}
	})
	return m
}

func (m *sim) setPage(name string) {
	m.web.SetStatic("sim.example/"+name, fmt.Sprintf(
		"<html><body><table><tr class=it><td>%s-rev-%d</td></tr></table></body></html>", name, m.revs[name]))
}

// start opens the store, restores and runs a server, and brings the
// model's view of a restored fleet up to date: a restored scheduled
// wrapper ticks as soon as the scheduler starts.
func (m *sim) start() {
	t := m.t
	cfg := Config{
		Addr: "127.0.0.1:0", AllowDynamic: true, DynamicFetcher: m.web,
		MaxCompilesPerMinute: -1, clock: m.clk,
	}
	if m.dir != "" {
		m.store = openStore(t, m.dir)
		cfg.ResultStore = m.store
	}
	m.s = New(cfg)
	if _, err := m.s.Restore(); err != nil {
		t.Fatal(err)
	}
	m.stop = runServer(t, m.s)
	m.base = "http://" + m.s.Addr()
	for _, name := range m.names() {
		if w := m.wrappers[name]; w.interval > 0 {
			m.tick(name, w)
			w.next = m.clk.Now().Add(w.interval)
			waitTicks(t, m.s, name, w.ticks)
		}
	}
}

// shutdown stops the server cleanly and closes the store.
func (m *sim) shutdown() {
	http.DefaultClient.CloseIdleConnections()
	m.stop()
	m.stop = nil
	if m.store != nil {
		m.store.Close()
	}
}

func (m *sim) names() []string {
	var names []string
	for name := range m.wrappers {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// tick records one delivery of the current page in the model.
func (m *sim) tick(name string, w *simWrapper) {
	w.ticks++
	w.revs = append(w.revs, m.revs[name])
}

func (m *sim) run() {
	ops := []struct {
		weight int
		op     func()
	}{
		{3, m.opRegister}, {2, m.opPatch}, {1, m.opDelete},
		{3, m.opEdit}, {3, m.opExtract}, {4, m.opAdvance},
		{1, m.opRestart}, {1, m.opSinkToggle}, {2, m.opHook},
		{2, m.opWatch}, {1, m.opUnwatch},
	}
	total := 0
	for _, o := range ops {
		total += o.weight
	}
	for step := 0; step < simSteps; step++ {
		n := m.rng.Intn(total)
		for _, o := range ops {
			if n -= o.weight; n < 0 {
				o.op()
				break
			}
		}
		m.drainStreams()
		m.checkCursors()
	}
	m.finish()
}

// pick returns a random registered wrapper's name, or "".
func (m *sim) pick() string {
	names := m.names()
	if len(names) == 0 {
		return ""
	}
	return names[m.rng.Intn(len(names))]
}

func (m *sim) opRegister() {
	var free []string
	for _, name := range simNames {
		if m.wrappers[name] == nil {
			free = append(free, name)
		}
	}
	if len(free) == 0 {
		return
	}
	name := free[m.rng.Intn(len(free))]
	iv := simIntervals[m.rng.Intn(len(simIntervals))]
	prog := fmt.Sprintf(`it(S, X) <- document("sim.example/%s", S), subelem(S, (?.tr, [(class, it, exact)]), X)`, name)
	code, body, _ := do(m.t, "POST", m.base+"/v1/wrappers",
		map[string]any{"name": name, "program": prog, "interval_ms": iv.Milliseconds()})
	if code != 201 {
		m.t.Fatalf("register %s: %d %s", name, code, body)
	}
	m.t.Logf("register %s every %v", name, iv)
	w := &simWrapper{interval: iv, hooks: map[string]*simHook{}}
	m.tick(name, w) // the synchronous registration tick
	w.next = m.clk.Now().Add(iv)
	m.wrappers[name] = w
}

func (m *sim) opPatch() {
	name := m.pick()
	if name == "" {
		return
	}
	w := m.wrappers[name]
	iv := simIntervals[m.rng.Intn(len(simIntervals))]
	if code, body, _ := do(m.t, "PATCH", m.base+"/v1/wrappers/"+name,
		map[string]any{"interval_ms": iv.Milliseconds()}); code != 200 {
		m.t.Fatalf("PATCH %s: %d %s", name, code, body)
	}
	m.t.Logf("patch %s to %v", name, iv)
	// Put on a schedule or moved to a new one, the wrapper next ticks
	// one interval from now.
	w.interval, w.next = iv, m.clk.Now().Add(iv)
}

func (m *sim) opDelete() {
	name := m.pick()
	if name == "" {
		return
	}
	m.converge(name)
	if code, body, _ := do(m.t, "DELETE", m.base+"/v1/wrappers/"+name, nil); code != 204 {
		m.t.Fatalf("DELETE %s: %d %s", name, code, body)
	}
	m.endStreams(name, "deregistered")
	delete(m.wrappers, name)
}

func (m *sim) opEdit() {
	name := simNames[m.rng.Intn(len(simNames))]
	m.revs[name]++
	m.t.Logf("edit %s to revision %d", name, m.revs[name])
	m.setPage(name)
}

func (m *sim) opExtract() {
	name := m.pick()
	if name == "" {
		return
	}
	w := m.wrappers[name]
	code, body, hdr := do(m.t, "POST", m.base+"/v1/wrappers/"+name+"/extract", map[string]any{})
	w.revs = append(w.revs, m.revs[name]) // a delivery, but not a tick
	m.t.Logf("extract %s: version %d", name, len(w.revs))
	if code != 200 || hdr.Get("Lixto-Version") != strconv.Itoa(len(w.revs)) || simRev(body) != m.revs[name] {
		m.t.Fatalf("extract %s: %d Lixto-Version %q, want %d with revision %d:\n%s",
			name, code, hdr.Get("Lixto-Version"), len(w.revs), m.revs[name], body)
	}
}

// opAdvance moves the clock; every scheduled wrapper whose deadline it
// passes ticks once.
func (m *sim) opAdvance() {
	steps := []time.Duration{time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond, time.Second, hookCooldown}
	m.advance(steps[m.rng.Intn(len(steps))])
}

func (m *sim) advance(d time.Duration) {
	now := m.clk.Now().Add(d)
	var due []string
	for _, name := range m.names() {
		if w := m.wrappers[name]; w.interval > 0 && !w.next.After(now) {
			m.tick(name, w)
			w.next = now.Add(w.interval)
			due = append(due, name)
		}
	}
	m.t.Logf("advance %v: %v tick", d, due)
	m.clk.Advance(d)
	for _, name := range due {
		waitTicks(m.t, m.s, name, m.wrappers[name].ticks)
	}
}

// opRestart shuts the server down cleanly and starts a new one over the
// same data directory. With a store every wrapper, version, webhook
// cursor and ETag survives; without one the fleet is gone.
func (m *sim) opRestart() {
	for _, name := range m.names() {
		m.converge(name)
	}
	m.readCheck()
	before := m.etags()
	m.shutdown()
	for _, name := range m.names() {
		m.endStreams(name, "shutting down")
	}
	if m.dir == "" {
		m.wrappers = map[string]*simWrapper{}
	}
	lastRev := map[string]int{}
	for name, w := range m.wrappers {
		w.ticks = 0
		lastRev[name] = w.revs[len(w.revs)-1]
	}
	m.start()
	m.readCheck()
	// The ETag stands: an on-demand wrapper has not ticked since, and a
	// scheduled one ticked once, repeating the content unless the page
	// changed meanwhile.
	after := m.etags()
	for name, w := range m.wrappers {
		if (w.interval == 0 || lastRev[name] == m.revs[name]) && after[name] != before[name] {
			m.t.Fatalf("ETag of %s changed across restart: %s -> %s", name, before[name], after[name])
		}
	}
}

// etags reads each wrapper's latest ETag.
func (m *sim) etags() map[string]string {
	out := map[string]string{}
	for _, name := range m.names() {
		rec := httptest.NewRecorder()
		m.s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/"+name, nil))
		out[name] = rec.Header().Get("ETag")
	}
	return out
}

func (m *sim) opSinkToggle() {
	m.sink.mu.Lock()
	on := !m.sink.failing
	m.sink.mu.Unlock()
	m.t.Logf("sink failing: %v", on)
	m.sink.setFailing(on)
}

// opHook registers a webhook from a random cursor, or from one past
// the head, which must be refused.
func (m *sim) opHook() {
	name := m.pick()
	if name == "" {
		return
	}
	w := m.wrappers[name]
	if len(w.hooks) >= 4 {
		return
	}
	head := uint64(len(w.revs))
	m.hookSeq++
	path := fmt.Sprintf("/hook%d", m.hookSeq)
	spec := map[string]any{"url": m.sink.ts.URL + path}
	since := head
	switch m.rng.Intn(4) {
	case 0:
		spec["since"] = head + 1 + uint64(m.rng.Intn(5))
		code, body, _ := do(m.t, "POST", m.base+"/v1/wrappers/"+name+"/webhooks", spec)
		if code != 400 || envelope(m.t, body).Kind != "bad_request" {
			m.t.Fatalf("webhook since %v at head %d: %d %s", spec["since"], head, code, body)
		}
		return
	case 1: // absent: from now
	default:
		since = uint64(m.rng.Intn(int(head) + 1))
		spec["since"] = since
	}
	code, body, _ := do(m.t, "POST", m.base+"/v1/wrappers/"+name+"/webhooks", spec)
	var info hookInfo
	if err := jsonUnmarshal(body, &info); code != 201 || err != nil || info.Cursor < since || info.Cursor > head {
		m.t.Fatalf("webhook on %s from %d: %d %s", name, since, code, body)
	}
	w.hooks[info.ID] = &simHook{path: path, since: since, cursor: since}
	m.t.Logf("hook %s %s on %s since %d", info.ID, path, name, since)
}

// opWatch opens an SSE stream: fresh, resuming from the newest id seen
// on the name, or from a cursor past the head.
func (m *sim) opWatch() {
	name := m.pick()
	if name == "" {
		return
	}
	head := uint64(len(m.wrappers[name].revs))
	st := &simStream{name: name}
	switch m.rng.Intn(3) {
	case 1:
		st.start = m.lastIDs[name]
	case 2:
		st.start = head + 1 + uint64(m.rng.Intn(10))
	}
	if st.start > head {
		st.ahead = head
	}
	var header []string
	if st.start > 0 {
		header = []string{"Last-Event-ID", strconv.FormatUint(st.start, 10)}
	}
	m.t.Logf("watch %s from %d (head %d)", name, st.start, head)
	st.c = openWatch(m.t, m.base+"/v1/wrappers/"+name+"/watch", header...)
	m.streams = append(m.streams, st)
}

func (m *sim) opUnwatch() {
	var open []*simStream
	for _, st := range m.streams {
		if !st.ended {
			open = append(open, st)
		}
	}
	if len(open) == 0 {
		return
	}
	st := open[m.rng.Intn(len(open))]
	m.converge(st.name)
	st.c.close()
	m.end(st)
}

// drainStreams collects the events every open stream has received.
func (m *sim) drainStreams() {
	for _, st := range m.streams {
		for !st.ended {
			select {
			case ev := <-st.c.events:
				st.events = append(st.events, ev)
				continue
			default:
			}
			break
		}
	}
}

// converge waits until every open stream on name has received the
// current snapshot: no stream is left behind.
func (m *sim) converge(name string) {
	w := m.wrappers[name]
	want := runStart(w.revs)
	for _, st := range m.streams {
		if st.ended || st.name != name {
			continue
		}
		for st.seen() < want {
			st.events = append(st.events, st.c.next(m.t, 5*time.Second))
		}
	}
}

// seen is the newest version whose content the stream has delivered
// or resumed past.
func (st *simStream) seen() uint64 {
	if st.ahead > 0 {
		return lastResult(st.events)
	}
	return max(lastResult(st.events), st.start)
}

// endStreams waits for each open stream on name to close with reason.
func (m *sim) endStreams(name, reason string) {
	for _, st := range m.streams {
		if st.ended || st.name != name {
			continue
		}
		for {
			ev := st.c.next(m.t, 5*time.Second)
			st.events = append(st.events, ev)
			if ev.event == "close" {
				if ev.data != reason {
					m.t.Fatalf("stream on %s closed with %q, want %q", name, ev.data, reason)
				}
				break
			}
		}
		m.end(st)
	}
}

// end checks a finished stream against the model.
func (m *sim) end(st *simStream) {
	st.ended = true
	m.checkStream(st)
	if id := lastResult(st.events); id > 0 {
		m.lastIDs[st.name] = id
	}
}

// checkStream: every result event carries the content of its version,
// ids increase, a version that repeats the content before it is sent
// only right after a gap, a cursor past the head starts with the gap
// to the head, and — when the hub dropped nothing — every content
// change after the cursor arrived or was covered by a gap.
func (m *sim) checkStream(st *simStream) {
	t := m.t
	w := m.wrappers[st.name]
	prev, gap := st.start, uint64(0)
	if st.ahead > 0 {
		prev = 0
		if len(st.events) == 0 || st.events[0].event != "gap" || st.events[0].data != strconv.FormatUint(st.ahead, 10) {
			t.Fatalf("stream on %s from %d past head %d did not open with the gap: %+v", st.name, st.start, st.ahead, st.events)
		}
	}
	var got []uint64
	excused := uint64(0)
	for i, ev := range st.events {
		switch ev.event {
		case "gap":
			g, _ := strconv.ParseUint(ev.data, 10, 64)
			gap, excused = g, max(excused, g)
		case "result":
			v := ev.id
			if v <= prev || v > uint64(len(w.revs)) {
				t.Fatalf("stream on %s: event %d has id %d after %d (head %d): %+v", st.name, i, v, prev, len(w.revs), st.events)
			}
			if gap != 0 && v != gap {
				t.Fatalf("stream on %s: gap to %d followed by id %d", st.name, gap, v)
			}
			if simRev(ev.data) != w.revs[v-1] {
				t.Fatalf("stream on %s: version %d carries revision %d, want %d", st.name, v, simRev(ev.data), w.revs[v-1])
			}
			if gap == 0 && i > 0 && !isChange(w.revs, v) {
				t.Fatalf("stream on %s: version %d repeats its predecessor without a gap", st.name, v)
			}
			got = append(got, v)
			prev, gap = v, 0
		case "close":
			if i != len(st.events)-1 {
				t.Fatalf("stream on %s: events after close: %+v", st.name, st.events)
			}
		}
	}
	if len(got) == 0 || m.s == nil {
		return
	}
	ps := m.s.readPipe(st.name)
	if ps == nil {
		return
	}
	if _, _, _, dropped := ps.deliver.hub.stats(); dropped > 0 {
		return // a slow subscriber coalesces by design
	}
	from := st.start
	if st.start == 0 || st.ahead > 0 {
		from = got[0]
	}
	for v := from + 1; v <= got[len(got)-1]; v++ {
		if isChange(w.revs, v) && v >= excused && !slices.Contains(got, v) {
			t.Fatalf("stream on %s from %d: content change at version %d never arrived: %v", st.name, st.start, v, got)
		}
	}
}

// checkCursors: a webhook cursor never moves back, nor past the head.
func (m *sim) checkCursors() {
	for _, name := range m.names() {
		w := m.wrappers[name]
		ps := m.s.readPipe(name)
		for id, h := range w.hooks {
			e := ps.hooks.get(id)
			if e == nil {
				m.t.Fatalf("webhook %s on %s vanished", id, name)
			}
			e.mu.Lock()
			c := e.cursor
			e.mu.Unlock()
			if c < h.cursor || c > uint64(len(w.revs)) {
				m.t.Fatalf("webhook %s on %s: cursor %d after %d (head %d)", id, name, c, h.cursor, len(w.revs))
			}
			h.cursor = c
		}
	}
}

// readCheck reads each wrapper's whole retained history: consecutive
// versions up to the head, a Lixto-Gap on the first one unless it is
// version 1, and the model's content at every version.
func (m *sim) readCheck() {
	for _, name := range m.names() {
		w := m.wrappers[name]
		code, body, hdr := do(m.t, "GET", m.base+"/v1/wrappers/"+name+"/results?since=0", nil)
		if code != 200 {
			m.t.Fatalf("results of %s: %d %s", name, code, body)
		}
		parts := strings.Split(body, `<result version="`)[1:]
		if len(parts) == 0 {
			m.t.Fatalf("results of %s: empty at head %d", name, len(w.revs))
		}
		first, _ := strconv.Atoi(parts[0][:strings.IndexByte(parts[0], '"')])
		if gap := hdr.Get("Lixto-Gap"); first != 1 && gap != strconv.Itoa(first) {
			m.t.Fatalf("results of %s start at %d with Lixto-Gap %q", name, first, gap)
		}
		for i, p := range parts {
			v, _ := strconv.Atoi(p[:strings.IndexByte(p, '"')])
			if v != first+i || simRev(p) != w.revs[v-1] {
				m.t.Fatalf("results of %s: entry %d is version %d with revision %d, want %d with %d",
					name, i, v, simRev(p), first+i, w.revs[first+i-1])
			}
		}
		if last := first + len(parts) - 1; last != len(w.revs) {
			m.t.Fatalf("results of %s end at %d, head is %d", name, last, len(w.revs))
		}
	}
}

// finish stops the schedules, lets every stream converge and closes
// it, heals the sink, and waits until every webhook has covered its
// range; then the history is read once more.
func (m *sim) finish() {
	t := m.t
	for _, name := range m.names() {
		if code, body, _ := do(t, "PATCH", m.base+"/v1/wrappers/"+name, map[string]any{"interval_ms": 0}); code != 200 {
			t.Fatalf("PATCH %s: %d %s", name, code, body)
		}
		m.wrappers[name].interval = 0
		m.converge(name)
	}
	m.drainStreams()
	for _, st := range m.streams {
		if !st.ended {
			st.c.close()
			m.end(st)
		}
	}
	// Now the only timers are the dispatchers' backoffs and cooldowns
	// and the cursor-save debounce: advance past them whenever one is
	// pending, else wait for a delivery or a new timer.
	m.sink.setFailing(false)
	for round := 0; ; round++ {
		m.sink.mu.Lock()
		delivered := m.sink.changed
		m.sink.mu.Unlock()
		m.clk.mu.Lock()
		armed, pending := m.clk.changed, len(m.clk.pending)
		m.clk.mu.Unlock()
		if m.hooksCovered() {
			break
		}
		if round == 1000 {
			t.Fatalf("webhooks never covered their ranges: %s", m.missing)
		}
		if pending > 0 {
			m.clk.Advance(hookCooldown)
			continue
		}
		select {
		case <-delivered:
		case <-armed:
		case <-time.After(5 * time.Second):
			t.Fatalf("webhook dispatchers idle short of their ranges: %s", m.missing)
		}
		m.checkCursors()
	}
	m.checkCursors()
	m.readCheck()
}

// hooksCovered reports whether every webhook has received every
// content change after its since (a dispatcher steps over a version
// that repeats the content before it), or a gap past it, each with its
// content.
func (m *sim) hooksCovered() bool {
	receipts := m.sink.snapshot()
	for _, name := range m.names() {
		w := m.wrappers[name]
		for _, h := range w.hooks {
			seen, excused := map[uint64]bool{}, uint64(0)
			for _, r := range receipts {
				if r.path != h.path {
					continue
				}
				if r.wrapper != name || r.version < 1 || r.version > uint64(len(w.revs)) ||
					simRev(r.body) != w.revs[r.version-1] {
					m.t.Fatalf("webhook %s on %s: version %d of %s carries revision %d; revisions %v",
						h.path, name, r.version, r.wrapper, simRev(r.body), w.revs)
				}
				seen[r.version] = true
				if g, _ := strconv.ParseUint(r.gap, 10, 64); g > excused {
					excused = g
				}
			}
			for v := max(h.since+1, excused); v <= uint64(len(w.revs)); v++ {
				if !seen[v] && isChange(w.revs, v) {
					m.missing = fmt.Sprintf("%s on %s (since %d) lacks version %d of %d; %s",
						h.path, name, h.since, v, len(w.revs), m.hookState(name))
					return false
				}
			}
		}
	}
	return true
}

// hookState describes name's webhook endpoints as the server sees them.
func (m *sim) hookState(name string) string {
	var out []string
	for _, e := range m.s.readPipe(name).hooks.list() {
		info := e.info()
		out = append(out, fmt.Sprintf("%s %s cursor %d %s %q", info.ID, info.URL, info.Cursor, info.State, info.LastError))
	}
	return strings.Join(out, "; ")
}

var simRevRE = regexp.MustCompile(`-rev-(\d+)`)

// simRev is the page revision a delivered document carries, or -1.
func simRev(doc string) int {
	if m := simRevRE.FindStringSubmatch(doc); m != nil {
		n, _ := strconv.Atoi(m[1])
		return n
	}
	return -1
}

// isChange reports whether version v's content differs from the
// version before it (version 1 always does).
func isChange(revs []int, v uint64) bool {
	return v == 1 || revs[v-1] != revs[v-2]
}

// runStart is the version at which the current content first appeared:
// the id of the current snapshot's SSE frame.
func runStart(revs []int) uint64 {
	v := uint64(len(revs))
	for v > 1 && !isChange(revs, v) {
		v--
	}
	return v
}

// lastResult is the id of the newest result event.
func lastResult(events []sseEvent) uint64 {
	for i := len(events) - 1; i >= 0; i-- {
		if events[i].event == "result" {
			return events[i].id
		}
	}
	return 0
}
