// Package server hosts Transformation Server pipelines (Section 5) as
// a long-running concurrent service: registered pipelines tick at
// their own intervals on a sharded timer-heap scheduler (a fixed set
// of shard goroutines owning next-fire deadline heaps, dispatching
// into a bounded worker pool — O(shards+workers) goroutines whether
// ten pipelines are registered or ten thousand), and the latest
// outputs are published over HTTP.
//
// Legacy (unversioned) endpoints, kept bit-for-bit stable:
//
//	GET /{name}            latest document (XML, or JSON when the
//	                       Accept header prefers application/json)
//	GET /{name}/history?n=K  the K most recent documents, newest first
//	GET /healthz           liveness: 200 once the server is ticking
//	GET /statusz           per-pipeline tick counts, errors, latencies
//
// The versioned wrapper-lifecycle API lives under /v1 (see v1.go):
// wrappers can be compiled and registered at runtime, extracted from
// synchronously, observed, and retired, with a uniform JSON error
// envelope {"error":{"kind","message","pos"}}.
//
// Lifecycle is context-driven: Run blocks until the context is
// cancelled, then stops the scheduler shards, drains queued and
// in-flight ticks, and shuts the HTTP listener down gracefully.
// Dynamically registered pipelines participate: each is drained on
// DELETE and on shutdown, and PATCH /v1/wrappers/{name} reschedules a
// wrapper in the live deadline heap without a restart.
//
// Time comes from one unexported clock (clock.go): the scheduler's
// deadlines and shard timers, webhook backoff, breaker cooldown and
// cursor-save debounce, the SSE heartbeat, the compile rate limiter and
// the status timestamps all read it. A server runs on real time; the
// package's tests set Config.clock to a fake they advance by hand.
// Durations that measure work, such as a tick's latency, stay on real
// time.
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/elog"
	"repro/internal/fetchcache"
	"repro/internal/resultlog"
	"repro/internal/transform"
	"repro/internal/xmlenc"
)

// Pipeline is one independently scheduled unit of work: a Section 6
// application (or any other information pipe) that can run one
// synchronous activation round and exposes its delivery collector.
type Pipeline interface {
	// PipeName is the stable route name (e.g. "nowplaying").
	PipeName() string
	// Tick runs one synchronous activation round. The returned error
	// is recorded in the pipeline's status; it does not stop the
	// schedule.
	Tick() error
	// Output is the collector whose documents the server publishes.
	Output() *transform.Collector
}

// Config tunes the server.
type Config struct {
	// Addr is the listen address (default ":8080").
	Addr string
	// DefaultInterval is the tick interval for pipelines registered
	// with interval 0 (default 2s).
	DefaultInterval time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ for live
	// profiling of a running server.
	EnablePprof bool
	// AllowDynamic enables runtime wrapper registration through
	// POST /v1/wrappers and /v1/extract. Off by default: accepting
	// programs from the network is an operator decision.
	AllowDynamic bool
	// DynamicFetcher resolves document URLs for dynamically registered
	// wrappers that do not carry an inline page, and for url-based
	// one-shot extractions. Nil means such requests are rejected.
	DynamicFetcher elog.Fetcher
	// MaxCompilesPerMinute rate-limits program compilation across the
	// /v1 endpoints (token bucket; default 60, negative = unlimited).
	MaxCompilesPerMinute int
	// SharedCache, when set, is the shared fetch/document layer:
	// dynamically registered wrappers without an inline page resolve
	// their fetches through it (deduplicating fetch+parse across
	// wrappers monitoring the same URLs), and its counters appear on
	// /statusz and GET /v1/wrappers.
	SharedCache *fetchcache.Cache
	// MatchCache, when set, is the fleet-shared pattern-match layer
	// (elog.MatchCache): dynamically registered wrappers attach their
	// evaluators to it, so wrappers containing identical extraction
	// paths reuse each other's compiled match results on shared pages.
	// Its counters appear on /statusz and GET /v1/wrappers as
	// "match_cache". Pair with SharedCache to also share the fetches.
	MatchCache *elog.MatchCache
	// ResultStore, when set, is the durable delivery layer
	// (internal/resultlog): every pipeline's delivery log is a
	// per-wrapper append-only result log, so every history read reaches
	// back as far as the log's retention. Restore rehydrates snapshots,
	// dynamic registrations and webhook cursors after a restart, and
	// the store's counters appear on /statusz as "persistence".
	ResultStore *resultlog.Store
	// Logf, when set, receives server lifecycle messages.
	Logf func(format string, args ...any)

	// watchQueue is the per-subscriber SSE queue depth; New sets it to
	// defaultWatchQueue unless an in-package test shrank it first.
	watchQueue int
	// clock is the server's time (see clock.go); nil is real time. Only
	// in-package tests set it.
	clock clock
}

// The server's fixed mechanisms. The scheduler's shape is schedShape.
const (
	// shutdownGrace bounds how long Run waits for open HTTP
	// connections on shutdown.
	shutdownGrace = 5 * time.Second
	// readTimeout, writeTimeout and idleTimeout are the http.Server's.
	readTimeout  = 5 * time.Second
	writeTimeout = 10 * time.Second
	idleTimeout  = 60 * time.Second
	// maxProgramBytes bounds the request body of the /v1 compile and
	// extract endpoints.
	maxProgramBytes = 256 << 10
	// defaultWatchQueue is the per-subscriber event queue depth on the
	// SSE watch routes. A subscriber that falls further behind loses
	// its oldest pending events (counted as dropped_slow) and coalesces
	// onto newer state.
	defaultWatchQueue = 8
	// watchHeartbeat is the interval between SSE comment heartbeats on
	// watch streams, keeping intermediaries from closing quiet
	// connections.
	watchHeartbeat = 15 * time.Second
	// maxHooksPerWrapper caps webhook registrations per wrapper.
	maxHooksPerWrapper = 16
)

func (c *Config) withDefaults() Config {
	out := *c
	if out.Addr == "" {
		out.Addr = ":8080"
	}
	if out.DefaultInterval <= 0 {
		out.DefaultInterval = 2 * time.Second
	}
	if out.MaxCompilesPerMinute == 0 {
		out.MaxCompilesPerMinute = 60
	}
	if out.watchQueue <= 0 {
		out.watchQueue = defaultWatchQueue
	}
	if out.clock == nil {
		out.clock = realClock{}
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// Server is the pipeline registry and HTTP front end.
type Server struct {
	cfg Config

	mu    sync.Mutex
	pipes map[string]*pipeState
	// busy holds the names in transition, with a channel each that closes
	// when the transition ends: a runtime registration whose validation
	// tick is in flight (its pipeline is in pipes), or a retired pipeline
	// whose ticks are draining and whose store state is being removed (it
	// is not). A busy name is not free.
	busy     map[string]chan struct{}
	addr     string
	started  bool
	draining bool
	sched    *sched // sharded timer-heap scheduler; set by Run

	// readPipes mirrors pipes for the read path: GET handlers resolve
	// names through this sync.Map (one lock-free lookup) and never
	// acquire s.mu. Mutated only under s.mu, alongside pipes.
	readPipes sync.Map // name → *pipeState

	limiter *rateLimiter // compile rate limit for the /v1 endpoints

	ready     chan struct{} // closed once the listener is bound
	drainCh   chan struct{} // closed when shutdown begins; ends SSE streams
	drainOnce sync.Once
}

// New returns an empty server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:     cfg,
		pipes:   map[string]*pipeState{},
		busy:    map[string]chan struct{}{},
		limiter: newRateLimiter(cfg.MaxCompilesPerMinute, cfg.clock),
		ready:   make(chan struct{}),
		drainCh: make(chan struct{}),
	}
}

// validName reports whether a pipeline name is routable: non-empty, no
// path separators, and not one of the reserved endpoint names.
func validName(name string) bool {
	switch name {
	case "", "healthz", "statusz", "debug", "v1":
		return false
	}
	return !strings.ContainsAny(name, "/?#%")
}

// initPipe wires a freshly built pipeState's delivery plane: the
// webhook registry, the delivery log (the wrapper's result log when a
// store is configured, else a ring of the collector's Retain records),
// and the collector's Journal, which makes every delivery an append.
// Must run before the pipeline's first tick.
func (s *Server) initPipe(ps *pipeState) error {
	ps.hooks.init(s, ps)
	d := &ps.deliver
	d.hooks = &ps.hooks
	out := ps.p.Output()
	if d.retain = out.Retain; d.retain <= 0 {
		d.retain = transform.DefaultRetain
	}
	if store := s.cfg.ResultStore; store != nil {
		l, err := store.Log(ps.name)
		if err != nil {
			return err
		}
		d.log, d.last = l, l.LastVersion()
	}
	out.Journal = d.append
	return nil
}

// Register adds a static pipeline ticking at the given interval (0 uses
// the configured default). It must be called before Run, and fails on
// duplicate or reserved names. Wrappers registered at runtime come in
// through POST /v1/wrappers.
func (s *Server) Register(p Pipeline, interval time.Duration) error {
	return s.insert(&pipeState{p: p, name: p.PipeName(), interval: interval}, false)
}

// errors distinguishing the registration failure modes for the HTTP
// layer.
var (
	errUnknownPipeline   = errors.New("server: unknown pipeline")
	errStaticPipeline    = errors.New("server: pipeline is not dynamic")
	errDuplicatePipeline = errors.New("duplicate pipeline")
	errShuttingDown      = errors.New("server shutting down")
	errFirstTick         = errors.New("first extraction failed")
)

// insert is the one way a pipeline enters the registry: Register, POST
// /v1/wrappers and Restore all call it. It checks that the name is
// routable and free, defaults the interval, refuses while draining (and
// refuses a static pipeline once Run has started), wires the delivery
// plane and inserts the pipeline, which is scheduled at once when the
// server runs, else when Run starts.
//
// With validate (a runtime registration) the pipeline first ticks once
// synchronously while its name stays busy, so it serves results the
// moment insert returns and a broken wrapper is rejected instead of
// failing silently on its schedule: a failed tick retires it again.
// After a good tick its spec is persisted and it is scheduled one
// interval from now, both under s.mu, so a DELETE that follows finds the
// whole registration.
func (s *Server) insert(ps *pipeState, validate bool) error {
	name := ps.name
	if !validName(name) {
		return fmt.Errorf("server: invalid pipeline name %q", name)
	}
	if ps.interval <= 0 {
		ps.interval = s.cfg.DefaultInterval
	}
	s.mu.Lock()
	var err error
	switch _, busy := s.busy[name]; {
	case s.draining:
		err = fmt.Errorf("server: %w", errShuttingDown)
	case s.started && !ps.dynamic:
		err = fmt.Errorf("server: cannot register %q after Run has started", name)
	case s.pipes[name] != nil || busy:
		err = fmt.Errorf("server: %w %q", errDuplicatePipeline, name)
	default:
		err = s.initPipe(ps)
	}
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.pipes[name] = ps
	s.readPipes.Store(name, ps)
	first := s.cfg.clock.Now()
	if validate {
		done := make(chan struct{})
		s.busy[name] = done
		s.mu.Unlock()
		// Outside the lock: the first extraction may fetch pages.
		ps.tickOnce(s.cfg.clock)
		s.mu.Lock()
		delete(s.busy, name)
		close(done)
		ps.mu.Lock()
		msg := ps.lastErr
		ps.mu.Unlock()
		switch {
		case s.draining:
			err = fmt.Errorf("server: %w", errShuttingDown)
		case msg != "":
			err = fmt.Errorf("server: wrapper %q: %w: %s", name, errFirstTick, msg)
		}
		if err != nil {
			// The validation tick may have journaled; the rejected
			// wrapper's log goes with it.
			s.retireLocked(ps)
			return err
		}
		s.persistSpec(ps)
		// The interval is the live one: a PATCH may have raced the tick.
		first = s.cfg.clock.Now().Add(ps.interval)
	}
	s.startLocked(ps, first)
	interval := ps.interval
	s.mu.Unlock()
	if ps.dynamic {
		s.cfg.Logf("server: registered dynamic pipeline %q (interval %s)", name, interval)
	}
	return nil
}

// deregister retires a dynamically registered pipeline (DELETE
// /v1/wrappers/{name}). A registration still in its validation tick is
// waited for first. It returns once the pipeline's ticks have drained
// and its store state is gone.
func (s *Server) deregister(name string) error {
	s.mu.Lock()
	for {
		ps := s.pipes[name]
		switch {
		case ps == nil:
			s.mu.Unlock()
			return errUnknownPipeline
		case !ps.dynamic:
			s.mu.Unlock()
			return errStaticPipeline
		}
		done, registering := s.busy[name]
		if !registering {
			s.retireLocked(ps)
			s.cfg.Logf("server: deregistered pipeline %q", name)
			return nil
		}
		s.mu.Unlock()
		<-done
		s.mu.Lock()
	}
}

// retireLocked takes ps out of the registry, then, outside s.mu,
// unschedules it and waits for any queued or in-flight tick, closes it
// (a dynamic wrapper detaches from the fleet-shared match cache) and
// removes its store state. The name stays busy until that is done, so a
// registration racing the retirement gets a duplicate error instead of
// the retired wrapper's log. Called with s.mu held; returns with it
// released.
func (s *Server) retireLocked(ps *pipeState) {
	done := make(chan struct{})
	s.busy[ps.name] = done
	delete(s.pipes, ps.name)
	s.readPipes.Delete(ps.name)
	// Watch subscribers observe the hub close and end their streams with
	// an "event: close" frame; webhook dispatchers stop and persist their
	// final cursors.
	ps.deliver.hub.close()
	ps.hooks.close()
	entry, sched := ps.entry, s.sched
	ps.entry = nil
	s.mu.Unlock()
	if entry != nil {
		sched.remove(entry)
	}
	if c, ok := ps.p.(interface{ Close() }); ok {
		c.Close()
	}
	if s.cfg.ResultStore != nil {
		// A retired wrapper's history and webhook cursors do not outlive
		// its registration (the hook set is closed, so no dispatcher
		// recreates the directory).
		s.cfg.ResultStore.Remove(ps.name)
	}
	s.mu.Lock()
	delete(s.busy, ps.name)
	s.mu.Unlock()
	close(done)
}

// setInterval reschedules a dynamically registered wrapper in the live
// deadline heap (PATCH /v1/wrappers/{name}): interval > 0 sets a new
// cadence (the next tick fires one new interval from now; an on-demand
// wrapper starts ticking), interval 0 converts the wrapper to on-demand,
// unscheduling it. The call blocks until a tick of a newly on-demand
// wrapper has drained.
func (s *Server) setInterval(name string, interval time.Duration) error {
	s.mu.Lock()
	ps := s.pipes[name]
	if ps == nil {
		s.mu.Unlock()
		return errUnknownPipeline
	}
	if !ps.dynamic {
		s.mu.Unlock()
		return errStaticPipeline
	}
	onDemand := interval <= 0
	ps.mu.Lock()
	ps.interval = interval
	ps.onDemand = onDemand
	ps.mu.Unlock()
	if _, registering := s.busy[name]; !registering {
		s.persistSpec(ps) // else the registration persists the live cadence
	}
	entry, sched := ps.entry, s.sched
	switch {
	case onDemand && entry != nil:
		ps.entry = nil
		s.mu.Unlock()
		sched.remove(entry)
	case entry != nil:
		s.mu.Unlock()
		sched.reschedule(entry, interval)
	default:
		// On-demand until now: start ticking one interval from now.
		// Before Run, while draining, or while the registration tick is
		// still in flight, startLocked leaves that to Run or the
		// registration, which read the live interval.
		s.startLocked(ps, s.cfg.clock.Now().Add(interval))
		s.mu.Unlock()
	}
	s.cfg.Logf("server: rescheduled pipeline %q (interval %s)", name, interval)
	return nil
}

// persistSpec saves a /v1 wrapper's spec with its live cadence, so a
// restart restores the wrapper as it runs now. Callers hold s.mu, which
// keeps a racing DELETE from removing the store directory first.
func (s *Server) persistSpec(ps *pipeState) {
	d, ok := ps.p.(*dynPipeline)
	if !ok || s.cfg.ResultStore == nil {
		return
	}
	spec := d.spec
	ps.mu.Lock()
	spec.IntervalMS = 0
	if !ps.onDemand {
		spec.IntervalMS = ps.interval.Milliseconds()
	}
	ps.mu.Unlock()
	if err := s.cfg.ResultStore.SaveMeta(ps.name, specFile, spec); err != nil {
		s.cfg.Logf("server: persist spec for %q: %v", ps.name, err)
	}
}

// startLocked schedules ps on the sharded scheduler, first firing at
// first. It does nothing for an on-demand or already scheduled pipeline,
// before Run, while draining, and while the pipeline's registration
// tick is in flight. Callers hold s.mu.
func (s *Server) startLocked(ps *pipeState, first time.Time) {
	ps.mu.Lock()
	onDemand, interval := ps.onDemand, ps.interval
	ps.mu.Unlock()
	_, registering := s.busy[ps.name]
	if onDemand || ps.entry != nil || s.sched == nil || s.draining || registering {
		return
	}
	ps.entry = s.sched.schedule(ps, ps.name, interval, first)
}

// Addr returns the bound listen address once Run has started, or "".
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

// Ready is closed once the HTTP listener is bound and the pipelines
// are ticking.
func (s *Server) Ready() <-chan struct{} { return s.ready }

// Run binds the listener, starts the sharded scheduler (shard + worker
// goroutines; pipelines add no goroutines of their own), and serves
// HTTP until ctx is cancelled. On cancellation it stops the scheduler
// (including dynamically registered pipelines), waits for queued and
// in-flight ticks to finish, and drains the HTTP server; it returns
// nil on a clean shutdown. A client connection that was opened but never
// carried a request (a racing speculative dial leaves one) counts as idle
// for net/http only once it is 5 s old, so it can hold the drain that
// long, bounded by shutdownGrace.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	sc := newSched(s.cfg.clock)
	defer sc.stopAndDrain()

	s.mu.Lock()
	s.started = true
	s.addr = ln.Addr().String()
	s.sched = sc
	n, now := len(s.pipes), s.cfg.clock.Now()
	for _, ps := range s.pipes {
		s.startLocked(ps, now)
	}
	s.mu.Unlock()

	hs := &http.Server{
		Handler:           s.Handler(),
		ReadTimeout:       readTimeout,
		ReadHeaderTimeout: readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	close(s.ready)
	s.cfg.Logf("server: listening on %s (%d pipelines)", s.addr, n)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	// drain refuses new registrations, stops the scheduler shards, and
	// waits for queued and in-flight ticks.
	drain := func() {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		// Wake every SSE watch stream so hs.Shutdown is not held open
		// by long-lived subscribers.
		s.drainOnce.Do(func() { close(s.drainCh) })
		sc.stopAndDrain()
		// Stop webhook dispatchers and persist their final cursors, then
		// flush the result log so the next process starts from exactly
		// this state.
		s.readPipes.Range(func(_, v any) bool {
			v.(*pipeState).hooks.close()
			return true
		})
		if s.cfg.ResultStore != nil {
			s.cfg.ResultStore.Sync()
		}
	}

	select {
	case <-ctx.Done():
		s.cfg.Logf("server: shutting down")
		drain()
		sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		err := hs.Shutdown(sctx)
		<-serveErr // Serve has returned (ErrServerClosed)
		return err
	case err := <-serveErr:
		drain()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// Handler returns the HTTP handler serving all endpoints; it is usable
// standalone (e.g. under httptest) without Run.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	mux.HandleFunc("GET /{name}", s.handleLatest)
	mux.HandleFunc("GET /{name}/history", s.handleHistory)
	// The /v1 routes are registered without a method so that bad
	// methods get a 405 + Allow with the JSON error envelope.
	mux.HandleFunc("/v1/wrappers", s.v1Wrappers)
	mux.HandleFunc("/v1/wrappers/{name}", s.v1Wrapper)
	mux.HandleFunc("/v1/wrappers/{name}/extract", s.v1WrapperExtract)
	mux.HandleFunc("/v1/wrappers/{name}/results", s.v1Results)
	mux.HandleFunc("/v1/wrappers/{name}/watch", s.v1Watch)
	mux.HandleFunc("/v1/wrappers/{name}/webhooks", s.v1Webhooks)
	mux.HandleFunc("/v1/wrappers/{name}/webhooks/{id}", s.v1Webhook)
	mux.HandleFunc("/v1/extract", s.v1Extract)
	mux.HandleFunc("/v1/wrappers/{name}/{rest...}", s.v1NotFound)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (s *Server) pipe(name string) *pipeState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pipes[name]
}

// readPipe resolves a pipeline for the read path without touching
// s.mu: one lock-free sync.Map lookup. Every GET handler goes through
// here, so reads stay responsive while registration, rescheduling, or
// shutdown hold the server mutex.
func (s *Server) readPipe(name string) *pipeState {
	if v, ok := s.readPipes.Load(name); ok {
		return v.(*pipeState)
	}
	return nil
}

// wantsJSON reports whether the Accept header prefers JSON over XML:
// application/json with a higher qvalue than application/xml and
// text/xml, or an equal one and listed before them. XML is the default.
func wantsJSON(r *http.Request) bool {
	jq, xq := -1.0, -1.0 // the best qvalues; -1 for not listed
	jsonFirst := false
	eachQuality(r.Header.Get("Accept"), func(token string, q float64) {
		switch token {
		case "application/json":
			jsonFirst = jsonFirst || xq < 0
			jq = max(jq, q)
		case "application/xml", "text/xml":
			xq = max(xq, q)
		}
	})
	return jq > 0 && (jq > xq || jq == xq && jsonFirst)
}

// eachQuality calls f with each element of an Accept-style header, its
// token lowercased, and its qvalue (RFC 9110 §12.4.2: the "q" parameter
// in any case, 1 when absent). An element whose qvalue is not a number
// in [0, 1] is skipped.
func eachQuality(header string, f func(token string, q float64)) {
	for header != "" {
		var elem, params string
		elem, header, _ = strings.Cut(header, ",")
		elem, params, _ = strings.Cut(elem, ";")
		q := 1.0
		for params != "" {
			var param string
			param, params, _ = strings.Cut(params, ";")
			if name, val, _ := strings.Cut(param, "="); strings.EqualFold(strings.TrimSpace(name), "q") {
				v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
				if err != nil || v < 0 || v > 1 {
					v = -1
				}
				q = v
			}
		}
		if elem = strings.ToLower(strings.TrimSpace(elem)); elem != "" && q >= 0 {
			f(elem, q)
		}
	}
}

func (s *Server) handleLatest(w http.ResponseWriter, r *http.Request) {
	ps := s.readPipe(r.PathValue("name"))
	if ps == nil {
		http.NotFound(w, r)
		return
	}
	sn := ps.deliver.snapshot()
	if sn == nil {
		http.Error(w, "no data yet", http.StatusServiceUnavailable)
		return
	}
	ps.serveSnapshot(w, r, sn, false)
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	ps := s.readPipe(r.PathValue("name"))
	if ps == nil {
		http.NotFound(w, r)
		return
	}
	ps.serveHistory(w, r, "history", 10, false)
}

// serveHistory answers a history read from the delivery log; GET
// /{name}/history (root "history", plain-text 500s) and GET
// /v1/wrappers/{name}/results (root "results", JSON error envelopes)
// share it. With ?since=C it lists the records after C, oldest first,
// each wrapped in a <result version="N"> element (a JSON object of the
// same shape under Accept: application/json), ?n= capping the page;
// otherwise it lists the ?n= (default defaultN) newest documents,
// newest first — the cursor read since(head−n). When the first version
// served is past the cursor + 1, the versions between are no longer
// retained: the Lixto-Gap header carries that first version. A cursor
// past the head is a gap back to the current version. Malformed
// parameters get the 400 envelope on both routes.
func (ps *pipeState) serveHistory(w http.ResponseWriter, r *http.Request, root string, defaultN int, envelope bool) {
	fail := func(err error) {
		if envelope {
			writeError(w, http.StatusInternalServerError, "internal", err.Error(), nil)
		} else {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
	q := r.URL.Query()
	limit := 0
	if q.Has("n") {
		v, err := strconv.Atoi(q.Get("n"))
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("query parameter n must be a positive integer, got %q", q.Get("n")), nil)
			return
		}
		limit = v
	}
	var cursor uint64
	cursorMode := q.Get("since") != ""
	if cursorMode {
		v, err := strconv.ParseUint(q.Get("since"), 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("query parameter since must be a non-negative integer, got %q", q.Get("since")), nil)
			return
		}
		cursor = v
	}
	head := ps.deliver.head()
	newest := 0
	if !cursorMode {
		newest = cmp.Or(limit, defaultN)
		cursor, limit = head-min(uint64(newest), head), 0
	}
	from := cursor
	if cursor > head {
		// A cursor past the head (one issued before a restart without
		// a store) is a gap: the current version is served, flagged.
		from = max(head, 1) - 1
	}
	recs, err := ps.deliver.since(from, limit)
	if err != nil {
		fail(err)
		return
	}
	if len(recs) > 0 && (recs[0].Version > from+1 || from < cursor) {
		w.Header().Set("Lixto-Gap", strconv.FormatUint(recs[0].Version, 10))
	}
	if newest > 0 && len(recs) > newest {
		recs = recs[len(recs)-newest:] // deliveries raced the read
	}
	items := make([]*xmlenc.Node, len(recs))
	for i, rec := range recs {
		doc, err := xmlenc.Unmarshal(string(rec.XML))
		if err != nil {
			fail(fmt.Errorf("version %d: %w", rec.Version, err))
			return
		}
		if cursorMode {
			item := xmlenc.NewElement("result")
			item.SetAttr("version", strconv.FormatUint(rec.Version, 10))
			items[i] = item.Append(doc)
		} else {
			items[len(recs)-1-i] = doc
		}
	}
	asJSON := wantsJSON(r)
	var body []byte
	if asJSON {
		if body, err = xmlenc.MarshalJSONList(items); err != nil {
			fail(err)
			return
		}
	} else {
		list := xmlenc.NewElement(root)
		list.SetAttr("name", ps.name)
		list.SetAttr("count", strconv.Itoa(len(items)))
		if cursorMode {
			list.SetAttr("since", strconv.FormatUint(cursor, 10))
		}
		list.Append(items...)
		body = xmlenc.MarshalIndentBytes(list)
	}
	setReadRouteHeaders(w, asJSON)
	w.Header().Set("Lixto-Version", strconv.FormatUint(head, 10))
	w.Write(body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// PipelineStatus is one entry of the /statusz report.
type PipelineStatus struct {
	Name          string  `json:"name"`
	IntervalMS    int64   `json:"interval_ms"`
	Ticks         uint64  `json:"ticks"`
	Errors        uint64  `json:"errors"`
	LastError     string  `json:"last_error,omitempty"`
	LastTick      string  `json:"last_tick,omitempty"`
	LastLatencyMS float64 `json:"last_latency_ms"`
	// Delivered is the newest delivery version; Retained is how many
	// versions the delivery log can still serve.
	Delivered int `json:"delivered"`
	Retained  int `json:"retained"`
	// SnapshotBytes is the delivery plane's resident gauge, the
	// counterpart of the extraction block's base_bytes: the current
	// snapshot's XML, the JSON and gzip variants built so far, and the
	// splice encoder's table. Every pipeline has one, so it sits here
	// rather than in the extraction block.
	SnapshotBytes uint64 `json:"snapshot_bytes"`
	// Extraction holds the pipeline's wrapper memoization counters
	// (the wrapper's unchanged-page memo, the compiled match cache)
	// when the pipeline exposes them.
	Extraction *transform.ExtractionStats `json:"extraction,omitempty"`
}

// ExtractionStatser is optionally implemented by pipelines whose
// wrappers memoize extraction (transform.Engine does); the counters
// appear in /statusz.
type ExtractionStatser interface {
	ExtractionStats() transform.ExtractionStats
}

// Status returns a snapshot of every pipeline's counters, sorted by
// name.
func (s *Server) Status() []PipelineStatus {
	pipes := s.pipesByName()
	out := make([]PipelineStatus, len(pipes))
	for i, ps := range pipes {
		out[i] = ps.status(ps.name)
	}
	return out
}

// pipesByName returns the registered pipelines sorted by name.
func (s *Server) pipesByName() []*pipeState {
	s.mu.Lock()
	out := make([]*pipeState, 0, len(s.pipes))
	for _, ps := range s.pipes {
		out = append(out, ps)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// SchedulerStatus returns the scheduler's pool shape and backpressure
// counters. Before Run it reports the shape with zero counters.
func (s *Server) SchedulerStatus() SchedulerStatus {
	s.mu.Lock()
	sc := s.sched
	s.mu.Unlock()
	if sc == nil {
		shards, workers, queue := schedShape()
		return SchedulerStatus{Shards: shards, Workers: workers, QueueCapacity: queue}
	}
	return sc.status()
}

// statusReport holds the server-wide blocks of /statusz and GET
// /v1/wrappers, which each add their pipeline list; the shared-cache,
// match-cache and persistence blocks appear only when that layer is
// configured.
func (s *Server) statusReport() map[string]any {
	report := map[string]any{
		"scheduler": s.SchedulerStatus(),
		"delivery":  s.DeliveryStatus(),
		"webhooks":  s.WebhookStatus(),
	}
	if s.cfg.SharedCache != nil {
		report["shared_cache"] = s.cfg.SharedCache.Stats()
	}
	if s.cfg.MatchCache != nil {
		report["match_cache"] = s.cfg.MatchCache.Report()
	}
	if s.cfg.ResultStore != nil {
		report["persistence"] = s.cfg.ResultStore.Stats()
	}
	return report
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	report := s.statusReport()
	report["pipelines"] = s.Status()
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}
