package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fetchcache"
	"repro/internal/transform"
	"repro/internal/web"
	"repro/pkg/lixto"
)

// runServer starts s.Run on a loopback port and returns a stop
// function that cancels it and waits for a clean return.
func runServer(t *testing.T, s *Server) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	select {
	case <-s.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	return func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Run returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Run did not return after cancel")
		}
	}
}

// TestSchedulerGoroutineCountIsFlat pins the tentpole invariant: the
// scheduler runs O(shards + workers) goroutines regardless of how many
// pipelines are registered. A 1000-pipeline server may use no more
// goroutines than a 10-pipeline one (plus a small slack for runtime
// noise) — under the old one-ticker-goroutine-per-pipeline design the
// difference was ~990. A tick starts no goroutine, so the count is
// taken as soon as the server is ready.
func TestSchedulerGoroutineCountIsFlat(t *testing.T) {
	measure := func(n int) int {
		s := New(Config{Addr: "127.0.0.1:0", clock: newFakeClock()})
		for i := 0; i < n; i++ {
			if err := s.Register(newFakePipe(fmt.Sprintf("p%d", i), 0), time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		stop := runServer(t, s)
		defer stop()
		return runtime.NumGoroutine()
	}
	small := measure(10)
	big := measure(1000)
	if slack := 15; big > small+slack {
		t.Fatalf("goroutines grew with pipeline count: %d @10 pipes vs %d @1000 pipes", small, big)
	}
}

// gatedPipe fails the test if two of its ticks ever run concurrently,
// and holds its first tick at a gate: entered closes when that tick
// arrives, and it proceeds once the test closes gate.
type gatedPipe struct {
	*fakePipe
	inFlight, overlaps atomic.Int32
	gate, entered      chan struct{}
	once               sync.Once
}

func newGatedPipe(name string) *gatedPipe {
	return &gatedPipe{fakePipe: newFakePipe(name, 0), gate: make(chan struct{}), entered: make(chan struct{})}
}

func (p *gatedPipe) Tick() error {
	if p.inFlight.Add(1) > 1 {
		p.overlaps.Add(1)
	}
	defer p.inFlight.Add(-1)
	p.once.Do(func() {
		close(p.entered)
		<-p.gate
	})
	return p.fakePipe.Tick()
}

// TestSchedulerOverlapProtection holds a pipeline's tick in flight
// across several of its deadlines: each deadline that fires mid-tick
// must be counted late and skipped, never dispatched concurrently.
func TestSchedulerOverlapProtection(t *testing.T) {
	clk := newFakeClock()
	p := newGatedPipe("slow")
	s := New(Config{Addr: "127.0.0.1:0", clock: clk})
	if err := s.Register(p, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	stop := runServer(t, s)
	<-p.entered // the first tick fires at once and is held
	const missed = 3
	for i := 0; i < missed; i++ {
		clk.waitDue(t, 5*time.Millisecond)
		clk.Advance(5 * time.Millisecond)
	}
	clk.waitDue(t, 5*time.Millisecond) // the last miss is counted
	close(p.gate)
	waitTicks(t, s, "slow", 1)
	clk.Advance(5 * time.Millisecond)
	waitTicks(t, s, "slow", 2)
	stop()
	if n := p.overlaps.Load(); n != 0 {
		t.Fatalf("%d overlapping ticks", n)
	}
	st := s.SchedulerStatus()
	if st.LateTicks != missed {
		t.Errorf("late ticks = %d, want %d (one per deadline of the held tick): %+v", st.LateTicks, missed, st)
	}
	if st.Dispatched != 2 {
		t.Errorf("dispatched = %d, want 2: %+v", st.Dispatched, st)
	}
}

// TestSetIntervalReschedulesLiveHeap covers the PATCH semantics at the
// Server level: speeding up a slow wrapper takes effect in the live
// deadline heap, and interval 0 converts it to on-demand.
func TestSetIntervalReschedulesLiveHeap(t *testing.T) {
	clk := newFakeClock()
	p := newFakePipe("dyn", 0)
	s := New(Config{Addr: "127.0.0.1:0", clock: clk})
	stop := runServer(t, s)
	defer stop()
	if err := registerDynamic(s, p, time.Hour, false); err != nil {
		t.Fatal(err)
	}
	// Only the synchronous registration tick for the next hour.
	if got := p.ticks.Load(); got != 1 {
		t.Fatalf("ticks after registration = %d, want 1", got)
	}
	if err := s.setInterval("dyn", 3*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Each 3 ms of clock is one tick.
	for n := uint64(2); n <= 5; n++ {
		clk.waitDue(t, 3*time.Millisecond)
		clk.Advance(3 * time.Millisecond)
		waitTicks(t, s, "dyn", n)
	}
	// Back to on-demand: ticking stops, however far the clock moves.
	if err := s.setInterval("dyn", 0); err != nil {
		t.Fatal(err)
	}
	base := p.ticks.Load()
	clk.waitTimers(t, 0) // no shard has anything left to fire
	clk.Advance(time.Hour)
	if got := p.ticks.Load(); got != base {
		t.Fatalf("on-demand wrapper kept ticking (%d -> %d)", base, got)
	}
	if err := s.setInterval("nosuch", time.Second); err != errUnknownPipeline {
		t.Errorf("setInterval(nosuch) = %v", err)
	}
	if err := s.Register(newFakePipe("static", 0), time.Hour); err == nil {
		t.Fatal("static registration after Run must fail")
	}
}

// TestSetIntervalDuringRegistration races PATCH against the
// synchronous registration tick: the reschedule must not start the
// schedule while the first tick is still in flight (no overlapping
// ticks), but must take effect once registration completes.
func TestSetIntervalDuringRegistration(t *testing.T) {
	clk := newFakeClock()
	p := newGatedPipe("racer")
	s := New(Config{Addr: "127.0.0.1:0", clock: clk})
	stop := runServer(t, s)
	defer stop()

	regDone := make(chan error, 1)
	go func() { regDone <- registerDynamic(s, p, time.Hour, false) }()
	<-p.entered // the registration tick is held at the gate
	if err := s.setInterval("racer", 3*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The reschedule is deferred; nothing may tick concurrently with
	// the registration tick still held at the gate.
	clk.waitTimers(t, 0)
	clk.Advance(time.Hour)
	if got := p.ticks.Load(); got != 0 {
		t.Fatalf("%d ticks ran while the registration tick was in flight", got)
	}
	close(p.gate)
	if err := <-regDone; err != nil {
		t.Fatal(err)
	}
	// The deferred reschedule kicks in after registration.
	for n := uint64(2); n <= 3; n++ {
		clk.waitDue(t, 3*time.Millisecond)
		clk.Advance(3 * time.Millisecond)
		waitTicks(t, s, "racer", n)
	}
	if n := p.overlaps.Load(); n != 0 {
		t.Fatalf("%d ticks overlapped the registration tick", n)
	}
}

// TestStatuszSchedulerAndCacheShape pins the JSON shape of the new
// /statusz blocks: the scheduler counters are always present, the
// shared-cache block appears when a cache is configured.
func TestStatuszSchedulerAndCacheShape(t *testing.T) {
	cache := fetchcache.New(64, time.Second)
	s := New(Config{SharedCache: cache})
	if err := s.Register(newFakePipe("x", 0), time.Hour); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body, _ := get(t, ts.URL+"/statusz")
	if code != 200 {
		t.Fatalf("statusz: %d", code)
	}
	var report struct {
		Pipelines []PipelineStatus  `json:"pipelines"`
		Scheduler *SchedulerStatus  `json:"scheduler"`
		Cache     *fetchcache.Stats `json:"shared_cache"`
		Delivery  *DeliveryStatus   `json:"delivery"`
	}
	if err := json.Unmarshal([]byte(body), &report); err != nil {
		t.Fatalf("statusz JSON: %v\n%s", err, body)
	}
	if report.Scheduler == nil || report.Cache == nil || report.Delivery == nil || len(report.Pipelines) != 1 {
		t.Fatalf("statusz missing blocks:\n%s", body)
	}
	shards, workers, queue := schedShape()
	if report.Scheduler.Shards != shards || report.Scheduler.Workers != workers || report.Scheduler.QueueCapacity != queue {
		t.Errorf("scheduler shape not surfaced: %+v", report.Scheduler)
	}
	if report.Cache.MaxEntries != 64 || report.Cache.MaxAgeMS != 1000 {
		t.Errorf("cache shape not surfaced: %+v", report.Cache)
	}
	// Pin the exact field names clients depend on.
	for _, key := range []string{
		`"scheduler"`, `"shards"`, `"workers"`, `"scheduled"`, `"queue_depth"`,
		`"queue_capacity"`, `"busy_workers"`, `"worker_utilization"`,
		`"dispatched"`, `"late_ticks"`, `"dropped_ticks"`,
		`"shared_cache"`, `"entries"`, `"max_entries"`, `"max_age_ms"`,
		`"hits"`, `"misses"`, `"shared"`, `"expired"`, `"evictions"`,
		`"delivery"`, `"snapshots"`, `"suppressed_noop_ticks"`, `"broadcasts"`,
		`"subscribers"`, `"subscribers_total"`, `"dropped_slow"`,
		`"etag_hits"`, `"etag_misses"`,
	} {
		if !strings.Contains(body, key) {
			t.Errorf("statusz lacks %s:\n%s", key, body)
		}
	}

	// Without a cache the block is absent.
	plain := New(Config{})
	tsPlain := httptest.NewServer(plain.Handler())
	defer tsPlain.Close()
	_, body, _ = get(t, tsPlain.URL+"/statusz")
	if strings.Contains(body, "shared_cache") {
		t.Errorf("shared_cache block present without a cache:\n%s", body)
	}
	if !strings.Contains(body, `"scheduler"`) {
		t.Errorf("scheduler block missing without a cache:\n%s", body)
	}
}

// guardPipe drives a single-wrapper transform engine (the dynamic
// /v1 pipeline shape) while detecting concurrent ticks of itself.
type guardPipe struct {
	name     string
	eng      *transform.Engine
	out      *transform.Collector
	inFlight atomic.Int32
	overlaps atomic.Int32
	ticks    atomic.Uint64
}

func (p *guardPipe) PipeName() string { return p.name }

func (p *guardPipe) Tick() error {
	if p.inFlight.Add(1) > 1 {
		p.overlaps.Add(1)
	}
	defer p.inFlight.Add(-1)
	p.ticks.Add(1)
	before := p.eng.ErrorCount()
	p.eng.Tick()
	if p.eng.ErrorCount() > before {
		return p.eng.LastError()
	}
	return nil
}

func (p *guardPipe) Output() *transform.Collector { return p.out }

// TestSchedulerStress is the 1000-wrapper soak: real Elog wrappers
// over 10 shared simulated pages behind one shared fetch cache,
// registered and deleted concurrently while the scheduler ticks them,
// under -race. Asserts: the shared pages are fetched once each (the
// cache deduplicates 1000 wrappers' fetches), no wrapper ever ticks
// concurrently with itself, every tick of a surviving wrapper
// delivered its document (no lost results), and shutdown drains
// cleanly.
func TestSchedulerStress(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-wrapper stress test")
	}
	const nPages, nWrappers = 10, 1000

	sim := web.New()
	for i := 0; i < nPages; i++ {
		sim.SetStatic(fmt.Sprintf("stress.example.com/p%d", i),
			fmt.Sprintf("<html><body><table><tr class=it><td>item %d</td></tr></table></body></html>", i))
	}
	cache := fetchcache.New(nPages*2, time.Hour)
	fetcher := cache.Wrap(sim)

	// One compiled wrapper per page, shared by 100 registrations each
	// (the compiled program and its match caches are concurrency-safe).
	wrappers := make([]*lixto.Wrapper, nPages)
	for i := range wrappers {
		wrappers[i] = lixto.MustCompile(fmt.Sprintf(
			`it(S, X) <- document("stress.example.com/p%d", S), subelem(S, (?.tr, [(class, it, exact)]), X)`, i))
	}

	clk := newFakeClock()
	s := New(Config{Addr: "127.0.0.1:0", clock: clk})
	stop := runServer(t, s)

	guards := make([]*guardPipe, nWrappers)
	var wg sync.WaitGroup
	var registerFailures atomic.Int32
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < nWrappers; i += 8 {
				name := fmt.Sprintf("w%d", i)
				eng, out, err := transform.NewWrapperEngineBatched(name, wrappers[i%nPages], fetcher, cache, nil)
				if err != nil {
					t.Error(err)
					return
				}
				p := &guardPipe{name: name, eng: eng, out: out}
				if err := registerDynamic(s, p, time.Duration(2+i%8)*time.Millisecond, false); err != nil {
					registerFailures.Add(1)
					continue
				}
				guards[i] = p
			}
		}(g)
	}
	wg.Wait()

	// Let the fleet tick through at least 30 ms of clock, deleting a
	// slice of it concurrently.
	deleted := make(chan struct{})
	go func() {
		defer close(deleted)
		for i := 0; i < nWrappers; i += 5 {
			if err := s.deregister(fmt.Sprintf("w%d", i)); err == nil {
				guards[i] = nil // retired; its collector stops growing
			}
		}
	}()
	done := func() bool {
		select {
		case <-deleted:
			return true
		default:
			return false
		}
	}
	for ms := 0; ms < 30 || !done(); ms++ {
		clk.Advance(time.Millisecond)
		clk.waitTimers(t, 4) // every shard dispatched its due deadlines
	}
	stop()

	if n := registerFailures.Load(); n > 0 {
		t.Fatalf("%d registrations failed", n)
	}
	// Shared fetch layer: 1000 wrappers, but each page fetched exactly
	// once (the 1h freshness window covers the whole test).
	for i := 0; i < nPages; i++ {
		url := fmt.Sprintf("stress.example.com/p%d", i)
		if got := sim.FetchCount(url); got != 1 {
			t.Errorf("page %s fetched %d times, want 1", url, got)
		}
	}
	if st := cache.Stats(); st.Misses != nPages {
		t.Errorf("cache misses = %d, want %d", st.Misses, nPages)
	}
	snapshotTicks := func() uint64 {
		total := uint64(0)
		for _, g := range guards {
			if g != nil {
				total += g.ticks.Load()
			}
		}
		return total
	}
	totalTicks := uint64(0)
	for i, g := range guards {
		if g == nil {
			continue
		}
		if n := g.overlaps.Load(); n != 0 {
			t.Fatalf("wrapper %d: %d overlapping ticks", i, n)
		}
		ticks := g.ticks.Load()
		totalTicks += ticks
		// Every tick (including the synchronous registration tick)
		// delivered exactly one document into the collector: no lost
		// results.
		if delivered := uint64(g.out.Len()); delivered != ticks {
			t.Fatalf("wrapper %d: %d ticks but %d deliveries", i, ticks, delivered)
		}
	}
	if totalTicks < nWrappers {
		t.Errorf("fleet barely ticked: %d total ticks", totalTicks)
	}
	// Clean drain: nothing ticks after Run returned.
	before := snapshotTicks()
	clk.Advance(time.Hour)
	if after := snapshotTicks(); after != before {
		t.Fatalf("ticks after shutdown: %d -> %d", before, after)
	}
}
