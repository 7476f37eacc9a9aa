// Package transform implements the Lixto Transformation Server
// (Section 5): a container of visually configured information agents
// forming an information pipe — acquisition (wrapper components),
// integration, transformation, and delivery stages that hand XML
// documents from component to component.
//
// As in the paper, the actual data flow is realized by handing over XML
// documents: every stage accepts XML (except wrapper components, which
// accept HTML from their source sites) and produces XML for its
// successors. Components that are not on the boundary are only activated
// by their neighbors; boundary components (wrappers, deliverers)
// self-activate according to a schedule and trigger processing on behalf
// of the user.
//
// The engine supports two execution modes: Tick() runs one synchronous
// activation round (deterministic; used by tests and benchmarks), and
// Run(ctx, interval) drives Ticks from a wall-clock ticker, giving the
// continuous monitoring behaviour of the deployed system.
package transform

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/dom"
	"repro/internal/elog"
	"repro/internal/fetchcache"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

// Component is one stage of an information pipe. Process receives a
// document from an upstream component (identified by name, so that
// integrators can tell their inputs apart) and emits zero or more
// documents to its successors.
type Component interface {
	Name() string
	Process(from string, doc *xmlenc.Node) ([]*xmlenc.Node, error)
}

// Source is a boundary component that self-activates: Poll is called on
// every engine tick and produces fresh documents.
type Source interface {
	Component
	Poll() ([]*xmlenc.Node, error)
}

// Engine is the component container and pipe network.
type Engine struct {
	mu    sync.Mutex
	comps map[string]Component
	order []string
	edges map[string][]string
	// Errors accumulated during ticks (a failing source should not kill
	// the whole service; the paper's server keeps running).
	Errors []error
	// MaxErrors bounds the error log.
	MaxErrors int
	// lastErr and nErrs always track the most recent error and the
	// total count, even once the Errors log is full.
	lastErr error
	nErrs   int
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{comps: map[string]Component{}, edges: map[string][]string{}, MaxErrors: 100}
}

// Add registers a component.
func (e *Engine) Add(c Component) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.comps[c.Name()]; dup {
		return fmt.Errorf("transform: duplicate component %q", c.Name())
	}
	e.comps[c.Name()] = c
	e.order = append(e.order, c.Name())
	return nil
}

// Components returns the registered components in registration order —
// the order Tick polls sources in. Callers inspect them (status pages,
// differential tests over wrapper sources); the engine stays the owner.
func (e *Engine) Components() []Component {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Component, 0, len(e.order))
	for _, name := range e.order {
		out = append(out, e.comps[name])
	}
	return out
}

// Close releases component resources held outside the engine — today,
// wrapper sources detaching from a fleet-shared match cache. The
// engine must not tick concurrently with or after Close.
func (e *Engine) Close() {
	for _, c := range e.Components() {
		if cl, ok := c.(interface{ Close() }); ok {
			cl.Close()
		}
	}
}

// Connect wires from's output to to's input. The pipe network must stay
// acyclic ("very complex unidirectional information flows").
func (e *Engine) Connect(from, to string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.comps[from]; !ok {
		return fmt.Errorf("transform: unknown component %q", from)
	}
	if _, ok := e.comps[to]; !ok {
		return fmt.Errorf("transform: unknown component %q", to)
	}
	e.edges[from] = append(e.edges[from], to)
	if e.reaches(to, from, map[string]bool{}) {
		e.edges[from] = e.edges[from][:len(e.edges[from])-1]
		return fmt.Errorf("transform: connecting %s -> %s would create a cycle", from, to)
	}
	return nil
}

func (e *Engine) reaches(from, target string, seen map[string]bool) bool {
	if from == target {
		return true
	}
	if seen[from] {
		return false
	}
	seen[from] = true
	for _, n := range e.edges[from] {
		if e.reaches(n, target, seen) {
			return true
		}
	}
	return false
}

// Tick runs one activation round: every Source polls once and its
// outputs propagate through the network. Deterministic given the
// sources' state.
func (e *Engine) Tick() {
	e.mu.Lock()
	order := append([]string{}, e.order...)
	e.mu.Unlock()
	for _, name := range order {
		src, ok := e.comps[name].(Source)
		if !ok {
			continue
		}
		docs, err := src.Poll()
		if err != nil {
			e.logErr(fmt.Errorf("source %s: %w", name, err))
			continue
		}
		for _, d := range docs {
			e.propagate(name, d)
		}
	}
}

func (e *Engine) propagate(from string, doc *xmlenc.Node) {
	for _, next := range e.edges[from] {
		out, err := e.comps[next].Process(from, doc)
		if err != nil {
			e.logErr(fmt.Errorf("component %s: %w", next, err))
			continue
		}
		for _, d := range out {
			e.propagate(next, d)
		}
	}
}

func (e *Engine) logErr(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastErr = err
	e.nErrs++
	if len(e.Errors) < e.MaxErrors {
		e.Errors = append(e.Errors, err)
	}
}

// ErrorCount returns the total number of errors logged so far (not
// capped by MaxErrors).
func (e *Engine) ErrorCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.nErrs
}

// LastError returns the most recently logged error, or nil.
func (e *Engine) LastError() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastErr
}

// Run ticks the engine at the given interval until the context is
// cancelled — the continuous-service mode.
func (e *Engine) Run(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			e.Tick()
		}
	}
}

// ---------------------------------------------------------------------
// Wrapper source.

// WrapperSource acquires content from source locations: on every poll it
// runs an Elog wrapper against its Fetcher and emits the XML produced by
// the XML transformer — "this component resembles the Lixto Visual
// Wrapper".
//
// Extraction goes through the SDK wrapper (Wrapper), which owns every
// piece of reuse state across ticks: the compiled program (whose own
// match memo serves extractions without a Batch cache), and the output
// cache that splices unchanged XML subtrees from the previous rendering. A
// one-shot extraction through the same *lixto.Wrapper shares them.
//
// Polls are additionally memoized on page content: every run records
// the fetched pages' content keys (dom.Tree.ContentKey), and the next
// poll first re-fetches only those pages. If every key is unchanged,
// the wrapper evaluation is deterministic on the same inputs, so the
// previous output document is re-emitted without re-running the Elog
// program or the XML transformation. A parsed page's key is a hash of
// its source bytes, so on such a steady poll the re-fetched page is
// never built into a tree: the poll is a fetch, a hash and a re-emit.
type WrapperSource struct {
	CompName string
	Fetcher  elog.Fetcher
	// Wrapper is the compiled wrapper the source runs, XML design
	// included (lixto.MustCompile(src, lixto.WithDesign(d))).
	Wrapper *lixto.Wrapper
	// Every counts ticks between polls (1 = every tick); sources with
	// slower upgrade intervals (charts vs radio, Section 6.1) poll less
	// often.
	Every int
	// NoSourceAttr suppresses the source="name" attribute on emitted
	// documents, so the output is byte-identical to running the same
	// program through the SDK or cmd/elogc (the /v1 dynamic wrappers
	// rely on this).
	NoSourceAttr bool
	// Shared, when set, routes every fetch (the cache recheck and the
	// evaluator's crawl frontier alike) through the shared
	// fetch/document layer, so concurrent wrappers monitoring the same
	// URLs share one fetch+parse per page per freshness window. All
	// sources sharing one cache must resolve URLs identically; the
	// extracted output is unchanged (only the fetch work is shared).
	Shared *fetchcache.Cache
	// Batch, when set, attaches the source's evaluator to a fleet-shared
	// match cache (elog.MatchCache): every wrapper sharing the cache
	// reuses the others' compiled pattern matches on identical paths and
	// unchanged pages, so a fleet of N template-stamped wrappers over
	// one shared page costs about one parse plus one warmed match cache.
	// Output is unchanged; pair with Shared to also share the fetches.
	Batch *elog.MatchCache
	tick  int
	// shared is the cache-wrapped form of Fetcher, built on first use.
	shared elog.Fetcher
	// batchAttached records that this source has counted itself into
	// Batch's fleet size.
	batchAttached bool

	// Last run whose fetches all succeeded: the URLs fetched (in
	// order), their trees' content keys, and the emitted document.
	lastURLs []string
	lastKeys []uint64
	lastDoc  *xmlenc.Node
	// Cumulative extraction timings (nanoseconds), written under
	// statsMu: parseNS is time spent in the fetch+parse layer (the
	// poll-memo recheck and the evaluator's fetcher calls, including
	// tree hashing and warming), evalNS the wall time of
	// whole wrapper evaluations, transformNS the wall time of the
	// instance-base → XML transform.
	parseNS     int64
	evalNS      int64
	transformNS int64
	// CacheHits counts polls answered from the content-key memo. It is
	// written under statsMu so that ExtractionStats can be read
	// concurrently (the server's status page polls it over HTTP).
	CacheHits int
	statsMu   sync.Mutex
}

// ExtractionStats aggregates a wrapper's memoization counters:
// PollCacheHits counts whole polls answered from the page content-key
// cache; MatchCacheHits/Misses count compiled match calls (one per rule
// and document for extraction paths, see elog.CompiledProgram.Stats)
// answered from (or inserted into) the evaluation's match memo.
type ExtractionStats struct {
	PollCacheHits    uint64 `json:"poll_cache_hits"`
	MatchCacheHits   uint64 `json:"match_cache_hits"`
	MatchCacheMisses uint64 `json:"match_cache_misses"`
	// Incremental-matching counters (subtree-fingerprint reuse):
	// SubtreeHits/SubtreeMisses count per-root content-addressed cache
	// lookups on changed documents; ReusedNodes/DirtyNodes the document
	// nodes those roots covered — reused nodes resolved their matches
	// from cache, dirty nodes ran the bitset matcher.
	SubtreeHits   uint64 `json:"subtree_hits"`
	SubtreeMisses uint64 `json:"subtree_misses"`
	DirtyNodes    uint64 `json:"dirty_nodes"`
	ReusedNodes   uint64 `json:"reused_nodes"`
	// Maintenance counters (elog.Evaluator.RunMaintained): the instances
	// ticks grafted from the previous tick's base instead of deriving
	// them, and the ticks that derived some of the base on the full path
	// (a rule that is not parent-local, a document not in document
	// order, or a previous base of another program or concept base).
	InstancesGrafted uint64 `json:"instances_grafted"`
	EvalFallbacks    uint64 `json:"eval_fallbacks"`
	// Incremental-output counters (cross-tick emitted-subtree reuse):
	// OutputReusedNodes/OutputBuiltNodes count output XML nodes spliced
	// from the previous tick's document vs constructed fresh, and
	// InstancesAdded/Removed/Unchanged the instance delta between
	// consecutive ticks' bases as the maintenance paired them
	// (pib.OutputStats).
	OutputReusedNodes  uint64 `json:"output_reused_nodes"`
	OutputBuiltNodes   uint64 `json:"output_built_nodes"`
	InstancesAdded     uint64 `json:"instances_added"`
	InstancesRemoved   uint64 `json:"instances_removed"`
	InstancesUnchanged uint64 `json:"instances_unchanged"`
	// BaseInstances/BaseBytes are gauges, not counters: the instance
	// count and approximate heap bytes (pib.Base.Bytes, computed once
	// when the base is sealed, plus the output hashes kept beside it) of
	// the instance base the source retains, which the next tick is
	// maintained from; document trees are not included.
	BaseInstances uint64 `json:"base_instances"`
	BaseBytes     uint64 `json:"base_bytes"`
	// ParseNS is cumulative time (ns) spent in the fetch+parse layer;
	// EvalNS cumulative wall time (ns) of wrapper evaluations (which
	// includes the fetches its crawl frontier issues); TransformNS
	// cumulative wall time of the instance-base → XML transform.
	ParseNS     uint64 `json:"parse_ns"`
	EvalNS      uint64 `json:"eval_ns"`
	TransformNS uint64 `json:"transform_ns"`
	// EncodeSplicedBytes counts snapshot bytes spliced from the
	// delivery plane's per-pipeline encode cache instead of being
	// re-encoded. Filled in by the server (the encoder lives with the
	// delivery plane, not the wrapper source).
	EncodeSplicedBytes uint64 `json:"encode_spliced_bytes"`
	// BatchSize is the number of wrappers attached to the source's
	// fleet-shared match cache (0 when batching is off). Aggregated
	// stats report the largest fleet.
	BatchSize int `json:"batch_size"`
}

// add accumulates o into s.
func (s *ExtractionStats) add(o ExtractionStats) {
	s.PollCacheHits += o.PollCacheHits
	s.MatchCacheHits += o.MatchCacheHits
	s.MatchCacheMisses += o.MatchCacheMisses
	s.SubtreeHits += o.SubtreeHits
	s.SubtreeMisses += o.SubtreeMisses
	s.DirtyNodes += o.DirtyNodes
	s.ReusedNodes += o.ReusedNodes
	s.InstancesGrafted += o.InstancesGrafted
	s.EvalFallbacks += o.EvalFallbacks
	s.OutputReusedNodes += o.OutputReusedNodes
	s.OutputBuiltNodes += o.OutputBuiltNodes
	s.InstancesAdded += o.InstancesAdded
	s.InstancesRemoved += o.InstancesRemoved
	s.InstancesUnchanged += o.InstancesUnchanged
	s.BaseInstances += o.BaseInstances
	s.BaseBytes += o.BaseBytes
	s.ParseNS += o.ParseNS
	s.EvalNS += o.EvalNS
	s.TransformNS += o.TransformNS
	s.EncodeSplicedBytes += o.EncodeSplicedBytes
	if o.BatchSize > s.BatchSize {
		s.BatchSize = o.BatchSize
	}
}

// ExtractionStats returns the source's memoization counters; safe to
// call concurrently with polling.
func (s *WrapperSource) ExtractionStats() ExtractionStats {
	s.statsMu.Lock()
	out := ExtractionStats{
		PollCacheHits: uint64(s.CacheHits),
		ParseNS:       uint64(s.parseNS),
		EvalNS:        uint64(s.evalNS),
		TransformNS:   uint64(s.transformNS),
	}
	s.statsMu.Unlock()
	o := s.Wrapper.OutputStats()
	out.OutputReusedNodes = o.ReusedNodes
	out.OutputBuiltNodes = o.BuiltNodes
	out.InstancesAdded = o.InstancesAdded
	out.InstancesRemoved = o.InstancesRemoved
	out.InstancesUnchanged = o.InstancesUnchanged
	out.BaseInstances = o.BaseInstances
	out.BaseBytes = o.BaseBytes
	cp := s.Wrapper.Compiled()
	out.MatchCacheHits, out.MatchCacheMisses = cp.Stats()
	inc := cp.Incremental()
	out.SubtreeHits = inc.SubtreeHits
	out.SubtreeMisses = inc.SubtreeMisses
	out.DirtyNodes = inc.DirtyNodes
	out.ReusedNodes = inc.ReusedNodes
	out.InstancesGrafted = inc.InstancesGrafted
	out.EvalFallbacks = inc.EvalFallbacks
	if s.Batch != nil {
		out.BatchSize = s.Batch.Attached()
	}
	return out
}

// extractionStatser is any component exposing extraction memoization
// counters.
type extractionStatser interface {
	ExtractionStats() ExtractionStats
}

// ExtractionStats sums the memoization counters of every wrapper source
// registered in the engine — the per-pipeline numbers surfaced on the
// server's /statusz page.
func (e *Engine) ExtractionStats() ExtractionStats {
	e.mu.Lock()
	comps := make([]Component, 0, len(e.order))
	for _, name := range e.order {
		comps = append(comps, e.comps[name])
	}
	e.mu.Unlock()
	var out ExtractionStats
	for _, c := range comps {
		if es, ok := c.(extractionStatser); ok {
			out.add(es.ExtractionStats())
		}
	}
	return out
}

// recordingFetcher wraps a Fetcher, recording each fetched URL and the
// content key of the returned tree. Pages already fetched by the
// cache recheck are served from prefetched, so a cache miss never
// fetches a page twice in one poll. The evaluator's crawl frontier
// fetches from multiple goroutines, so the recording is locked; the
// recorded order is whatever the frontier completes first, which is
// fine — the cache recheck treats the list as a url→key set.
// A failed fetch is not recorded but sets failed: the evaluator skips
// a crawl link it cannot fetch, so the run's output rests on a page the
// recheck could not see come back.
type recordingFetcher struct {
	inner      elog.Fetcher
	prefetched map[string]*dom.Tree
	mu         sync.Mutex
	urls       []string
	keys       []uint64
	failed     bool
	fetchNS    int64
}

func (r *recordingFetcher) Fetch(url string) (*dom.Tree, error) {
	start := time.Now()
	t, ok := r.prefetched[url]
	if !ok {
		var err error
		t, err = r.inner.Fetch(url)
		if err != nil {
			r.mu.Lock()
			r.failed = true
			r.mu.Unlock()
			return nil, err
		}
	}
	// The evaluation reads the whole tree: build and warm it here, on
	// the frontier's worker. Warm serializes concurrent callers, so two
	// workers handed the same tree under different URLs do not race.
	t.Warm()
	key := t.ContentKey()
	r.mu.Lock()
	r.urls = append(r.urls, url)
	r.keys = append(r.keys, key)
	r.fetchNS += time.Since(start).Nanoseconds()
	r.mu.Unlock()
	return t, nil
}

// unchanged reports whether re-fetching every page of the last run
// yields the same content keys. The fetched trees are retained in
// prefetched either way, so on a miss the evaluator reuses them. The
// re-fetch is the steady-state server tick, so the pages are retrieved
// in parallel, mirroring the evaluator's crawl frontier; a fetch error
// counts as changed (the evaluator will surface it). Only each tree's
// ContentKey is read here, which for a parsed page is the hash of its
// source and builds nothing: the tree is built and warmed on the miss
// path alone, by its recordingFetcher.
func (s *WrapperSource) unchanged(prefetched map[string]*dom.Tree) bool {
	if s.lastDoc == nil {
		return false
	}
	var missing []string
	if len(s.lastURLs) == 1 {
		if _, ok := prefetched[s.lastURLs[0]]; !ok {
			missing = s.lastURLs
		}
	} else {
		seen := map[string]bool{}
		for _, url := range s.lastURLs {
			if _, ok := prefetched[url]; !ok && !seen[url] {
				seen[url] = true
				missing = append(missing, url)
			}
		}
	}
	fetcher := s.fetchClient()
	if len(missing) == 1 {
		// The common single-page wrapper: fetch inline, skipping the
		// fan-out machinery (a measurable share of steady-state poll
		// allocations).
		t, err := fetcher.Fetch(missing[0])
		if err != nil {
			return false
		}
		prefetched[missing[0]] = t
	} else if len(missing) > 1 {
		type fetched struct {
			url string
			t   *dom.Tree
			err error
		}
		results := make(chan fetched, len(missing))
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		for _, url := range missing {
			go func(url string) {
				sem <- struct{}{}
				defer func() { <-sem }()
				t, err := fetcher.Fetch(url)
				if err == nil {
					t.ContentKey() // a fingerprint, for a tree not parsed from bytes: hashed in parallel
				}
				results <- fetched{url, t, err}
			}(url)
		}
		ok := true
		for range missing {
			r := <-results
			if r.err != nil {
				ok = false
				continue
			}
			prefetched[r.url] = r.t
		}
		if !ok {
			return false
		}
	}
	same := true
	for i, url := range s.lastURLs {
		if prefetched[url].ContentKey() != s.lastKeys[i] {
			same = false
		}
	}
	return same
}

// fetchClient returns the fetcher polls go through: the raw Fetcher,
// or its cache-wrapped form when a shared fetch layer is configured.
// Called only from the polling goroutine (Poll and its helpers).
func (s *WrapperSource) fetchClient() elog.Fetcher {
	if s.Shared == nil {
		return s.Fetcher
	}
	if s.shared == nil {
		s.shared = s.Shared.Wrap(s.Fetcher)
	}
	return s.shared
}

// Name implements Component.
func (s *WrapperSource) Name() string { return s.CompName }

// Process implements Component (sources have no inputs).
func (s *WrapperSource) Process(string, *xmlenc.Node) ([]*xmlenc.Node, error) {
	return nil, fmt.Errorf("transform: wrapper source %s cannot receive documents", s.CompName)
}

// Poll wraps the sources and emits one XML document.
func (s *WrapperSource) Poll() ([]*xmlenc.Node, error) {
	every := s.Every
	if every <= 0 {
		every = 1
	}
	s.tick++
	if (s.tick-1)%every != 0 {
		return nil, nil
	}
	prefetched := map[string]*dom.Tree{}
	// The recheck is nothing but fetch, parse and hash, and on a hit it
	// is all of the poll: it counts as parse time either way.
	start := time.Now()
	hit := s.unchanged(prefetched)
	s.statsMu.Lock()
	s.parseNS += time.Since(start).Nanoseconds()
	if hit {
		s.CacheHits++
	}
	if s.Batch != nil && !s.batchAttached {
		s.batchAttached = true
		s.Batch.Attach()
	}
	s.statsMu.Unlock()
	if hit {
		return []*xmlenc.Node{s.lastDoc}, nil
	}
	rec := &recordingFetcher{inner: s.fetchClient(), prefetched: prefetched}
	start = time.Now()
	res, err := s.Wrapper.Extract(context.Background(), lixto.Origin(), lixto.WithFetcher(rec),
		lixto.WithIncrementalOutput(true), lixto.WithBatching(s.Batch))
	if err != nil {
		return nil, err
	}
	tstart := time.Now()
	doc := res.XML()
	s.statsMu.Lock()
	s.parseNS += rec.fetchNS
	s.evalNS += tstart.Sub(start).Nanoseconds()
	s.transformNS += time.Since(tstart).Nanoseconds()
	s.statsMu.Unlock()
	if !s.NoSourceAttr {
		doc.SetAttr("source", s.CompName)
	}
	if rec.failed {
		// No memo: the next poll retries the failed fetch.
		s.lastURLs, s.lastKeys, s.lastDoc = nil, nil, nil
	} else {
		s.lastURLs, s.lastKeys, s.lastDoc = rec.urls, rec.keys, doc
	}
	return []*xmlenc.Node{doc}, nil
}

// Close detaches the source from its fleet-shared match cache, so
// batch_size stops counting retired wrappers. Safe to call multiple
// times and on sources that never polled.
func (s *WrapperSource) Close() {
	if s.Batch == nil {
		return
	}
	s.statsMu.Lock()
	attached := s.batchAttached
	s.batchAttached = false
	s.statsMu.Unlock()
	if attached {
		s.Batch.Detach()
	}
}

// ---------------------------------------------------------------------
// Integrator.

// Integrator merges the latest document from each of its inputs into a
// single document (stage 2 of the pipeline). It emits whenever an input
// arrives and all expected inputs have delivered at least once.
type Integrator struct {
	CompName string
	// Expect lists the upstream component names to wait for.
	Expect []string
	// RootName is the merged document element (default "integrated").
	RootName string
	mu       sync.Mutex
	latest   map[string]*xmlenc.Node
}

// Name implements Component.
func (i *Integrator) Name() string { return i.CompName }

// Process implements Component.
func (i *Integrator) Process(from string, doc *xmlenc.Node) ([]*xmlenc.Node, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.latest == nil {
		i.latest = map[string]*xmlenc.Node{}
	}
	i.latest[from] = doc
	for _, exp := range i.Expect {
		if i.latest[exp] == nil {
			return nil, nil // wait for the remaining inputs
		}
	}
	name := i.RootName
	if name == "" {
		name = "integrated"
	}
	merged := xmlenc.NewElement(name)
	for _, exp := range i.Expect {
		merged.Append(i.latest[exp])
	}
	return []*xmlenc.Node{merged}, nil
}

// ---------------------------------------------------------------------
// Transformer.

// Transformer applies a function to each document (stage 3). The
// function must not mutate its input (documents are shared across
// branches); it returns the transformed document, or nil to drop it.
type Transformer struct {
	CompName string
	Fn       func(*xmlenc.Node) (*xmlenc.Node, error)
}

// Name implements Component.
func (t *Transformer) Name() string { return t.CompName }

// Process implements Component.
func (t *Transformer) Process(_ string, doc *xmlenc.Node) ([]*xmlenc.Node, error) {
	out, err := t.Fn(doc)
	if err != nil {
		return nil, err
	}
	if out == nil {
		return nil, nil
	}
	return []*xmlenc.Node{out}, nil
}

// ChangeFilter forwards a document only when it differs from the
// previous one — the change-detection behaviour of the flight-status
// application ("only if the status changed between consecutive
// requests", Section 6.2).
type ChangeFilter struct {
	CompName string
	mu       sync.Mutex
	last     map[string]string
}

// Name implements Component.
func (c *ChangeFilter) Name() string { return c.CompName }

// Process implements Component.
func (c *ChangeFilter) Process(from string, doc *xmlenc.Node) ([]*xmlenc.Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.last == nil {
		c.last = map[string]string{}
	}
	s := xmlenc.Marshal(doc)
	if c.last[from] == s {
		return nil, nil
	}
	c.last[from] = s
	return []*xmlenc.Node{doc}, nil
}

// ---------------------------------------------------------------------
// Deliverers.

// DefaultRetain is the number of recent documents a Collector keeps
// when no explicit retention cap is configured.
const DefaultRetain = 64

// Collector is a deliverer that stores the documents it receives in a
// bounded ring buffer; tests, examples and benchmarks read the
// service's output here. It stands in for the paper's SMS/HTTP/RMI
// delivery media. A long-running server delivers forever, so retention
// is capped (DefaultRetain unless Retain is set) while Len still
// reports the total number of deliveries.
type Collector struct {
	CompName string
	// Retain caps how many recent documents are kept. Zero means
	// DefaultRetain. The cap is latched on the first delivery; later
	// changes to Retain have no effect. A server that journals the
	// collector reads Retain once, at registration, as the length of
	// its in-memory delivery log (used when no result store is
	// attached).
	Retain int
	// Journal, when set, is called after every delivery with the
	// collector's delivery count and the delivered document, outside
	// the collector lock. The server sets it at registration: the call
	// appends the document to the pipeline's delivery log, which owns
	// the history (and numbers the versions), so a journaled collector
	// keeps only its latest document.
	Journal func(version uint64, doc *xmlenc.Node)
	mu      sync.Mutex
	ringCap int
	docs    []*xmlenc.Node // ring storage, oldest at start
	start   int
	total   int
}

// Name implements Component.
func (c *Collector) Name() string { return c.CompName }

func (c *Collector) capLocked() int {
	if c.ringCap == 0 {
		if c.Retain > 0 {
			c.ringCap = c.Retain
		} else {
			c.ringCap = DefaultRetain
		}
	}
	return c.ringCap
}

// Process implements Component.
func (c *Collector) Process(_ string, doc *xmlenc.Node) ([]*xmlenc.Node, error) {
	c.mu.Lock()
	c.total++
	switch n := c.capLocked(); {
	case c.Journal != nil:
		c.docs, c.start = append(c.docs[:0], doc), 0
	case len(c.docs) < n:
		c.docs = append(c.docs, doc)
	default:
		c.docs[c.start] = doc
		c.start = (c.start + 1) % n
	}
	v := uint64(c.total)
	c.mu.Unlock()
	if c.Journal != nil {
		c.Journal(v, doc)
	}
	return nil, nil
}

// Docs returns the retained documents in delivery order (oldest
// first). Once more than the retention cap have been delivered, only
// the most recent cap documents remain.
func (c *Collector) Docs() []*xmlenc.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*xmlenc.Node, len(c.docs))
	for i := range c.docs {
		out[i] = c.docs[(c.start+i)%len(c.docs)]
	}
	return out
}

// Latest returns the most recently delivered document, or nil.
func (c *Collector) Latest() *xmlenc.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.docs) == 0 {
		return nil
	}
	last := c.start - 1
	if last < 0 {
		last = len(c.docs) - 1
	}
	return c.docs[last]
}

// Len returns the total number of deliveries (including documents that
// have since been evicted from the retention ring).
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Retained returns the number of documents currently held.
func (c *Collector) Retained() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.docs)
}

// FileDeliverer appends each document to a file (one document per
// write), for offline consumption.
type FileDeliverer struct {
	CompName string
	Path     string
}

// Name implements Component.
func (f *FileDeliverer) Name() string { return f.CompName }

// Process implements Component.
func (f *FileDeliverer) Process(_ string, doc *xmlenc.Node) ([]*xmlenc.Node, error) {
	fh, err := os.OpenFile(f.Path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	if _, err := fh.WriteString(xmlenc.MarshalIndent(doc) + "\n"); err != nil {
		return nil, err
	}
	return nil, nil
}

// HTTPDeliverer POSTs each document to an endpoint (the paper's
// HTTP-controlled services).
type HTTPDeliverer struct {
	CompName string
	URL      string
	Client   *http.Client
}

// Name implements Component.
func (h *HTTPDeliverer) Name() string { return h.CompName }

// Process implements Component.
func (h *HTTPDeliverer) Process(_ string, doc *xmlenc.Node) ([]*xmlenc.Node, error) {
	client := h.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Post(h.URL, "application/xml", strings.NewReader(xmlenc.Marshal(doc)))
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		return nil, fmt.Errorf("transform: delivery to %s failed: %s", h.URL, resp.Status)
	}
	return nil, nil
}
