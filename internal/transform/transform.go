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
// Tick() runs one synchronous activation round (deterministic); the
// continuous monitoring behaviour of the deployed system is the
// server's scheduler (internal/server) ticking each engine on its own
// interval.
package transform

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/elog"
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

// ---------------------------------------------------------------------
// Wrapper source.

// WrapperSource acquires content from source locations: on every poll it
// runs an Elog wrapper against its Fetcher and emits the XML produced by
// the XML transformer — "this component resembles the Lixto Visual
// Wrapper".
//
// Extraction goes through the SDK wrapper (Wrapper), which owns every
// piece of reuse state across ticks: the compiled program (whose own
// match memo serves extractions without a Batch cache), the output
// cache that splices unchanged XML subtrees from the previous rendering,
// and the last rendered Result. A poll whose pages all come back with
// their last content keys is answered with that Result, the same
// document re-emitted without evaluating (see pkg/lixto); a changed
// page is re-parsed only around its changed bytes. A one-shot
// extraction through the same *lixto.Wrapper shares all of it.
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
	// Batch, when set, attaches the source's evaluator to a fleet-shared
	// match cache (elog.MatchCache): every wrapper sharing the cache
	// reuses the others' compiled pattern matches on identical paths and
	// unchanged pages, so a fleet of N template-stamped wrappers over
	// one shared page costs about one parse plus one warmed match cache.
	// Output is unchanged; pair with a Fetcher wrapped by a shared fetch
	// cache (fetchcache.Cache.Wrap) to also share the fetches.
	Batch *elog.MatchCache
	tick  int
	// opts are the extraction options of every poll, built on the first.
	opts []lixto.Option
	// batchAttached records that this source has counted itself into
	// Batch's fleet size.
	batchAttached bool

	// Cumulative poll timings (nanoseconds), written under statsMu:
	// evalNS is the wall time of the polls' extractions (the memo's
	// re-fetch included), transformNS that of the instance-base → XML
	// transform.
	evalNS      int64
	transformNS int64
	statsMu     sync.Mutex
}

// ExtractionStats aggregates a wrapper's memoization counters:
// PollCacheHits counts extractions answered from the wrapper's memo of
// its last rendered Result because no page changed — scheduled polls
// and one-shot extractions through the same *lixto.Wrapper alike
// (lixto.Wrapper.FetchStats); MatchCacheHits/Misses count compiled
// match calls (one per rule and document for extraction paths, see
// elog.CompiledProgram.Stats) answered from (or inserted into) the
// evaluation's match memo.
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
	// ParseNS is cumulative time (ns) the wrapper's extractions spent in
	// their fetcher (fetch and source hash; a changed page's build runs
	// on the crawl frontier, inside EvalNS), one-shot extractions
	// included; EvalNS cumulative wall time (ns) of the polls'
	// extractions (which includes the fetches they issue);
	// TransformNS cumulative wall time of the instance-base → XML
	// transform.
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
	out := ExtractionStats{EvalNS: uint64(s.evalNS), TransformNS: uint64(s.transformNS)}
	s.statsMu.Unlock()
	out.PollCacheHits, out.ParseNS = s.Wrapper.FetchStats()
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
	if s.opts == nil {
		s.opts = []lixto.Option{lixto.WithFetcher(s.Fetcher), lixto.WithBatching(s.Batch),
			lixto.WithIncrementalOutput(true)}
	}
	s.statsMu.Lock()
	if s.Batch != nil && !s.batchAttached {
		s.batchAttached = true
		s.Batch.Attach()
	}
	s.statsMu.Unlock()
	start := time.Now()
	res, err := s.Wrapper.Extract(context.Background(), lixto.Origin(), s.opts...)
	if err != nil {
		return nil, err
	}
	tstart := time.Now()
	doc := res.XML()
	// The document holds no tree: the wrapper may recycle this run's
	// pages once it has moved on to the next.
	res.Release()
	s.statsMu.Lock()
	s.evalNS += tstart.Sub(start).Nanoseconds()
	s.transformNS += time.Since(tstart).Nanoseconds()
	s.statsMu.Unlock()
	// A document the wrapper answered from its memo was stamped by the
	// poll that rendered it, and is published: it is only read.
	if v, _ := doc.Attr("source"); !s.NoSourceAttr && v != s.CompName {
		doc.SetAttr("source", s.CompName)
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
