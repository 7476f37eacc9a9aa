// Package lixto is the public SDK of the Lixto reproduction — the one
// supported entry point for embedding wrappers in Go programs. It
// covers the full wrapper lifecycle: compile an Elog program once, then
// extract from inline HTML, pre-parsed trees, fetched URLs, or the
// program's own source sites, concurrently and under a context.
//
//	w, err := lixto.Compile(src, lixto.WithAuxiliary("page"))
//	res, err := w.Extract(ctx, lixto.HTML(page))
//	fmt.Print(xmlenc.MarshalIndent(res.XML()))
//
// Every error is a typed *lixto.Error carrying the failed stage
// (Parse/Stratify/Fetch/Eval) and, for program errors, the source
// position. A compiled Wrapper is immutable and safe for concurrent
// use: its bitset-compiled form and fingerprint-keyed match memo (its
// own, or the fleet cache of WithBatching) are shared across
// goroutines, so repeated extraction of unchanged pages
// skips the pattern-matching tree walks, and a changed version of a
// page re-matches only the regions whose subtrees changed (the
// instance base is identical to a fresh wrapper's either way).
//
// Under WithIncrementalOutput the wrapper also retains the last Result
// it rendered, and that Result is the wrapper's whole memory of the
// previous run: its base's document instances are the pages the output
// rests on. An extraction first re-fetches those pages; when every one
// comes back with the content key it had (dom.Tree.ContentKey, for a
// parsed page a hash of its source bytes, so nothing is built) and the
// call's design, concept base and limits are the retained run's, it
// returns the retained Result itself, XML document included, without
// evaluating. Otherwise the evaluation reads the re-fetched trees (no
// page is fetched twice in one extraction), is maintained from the
// retained base, and builds each changed page from the retained tree
// of its URL, re-parsing only the bytes that changed. FetchStats
// counts the memo's answers.
//
// The page trees an extraction builds are its own: a page its fetcher
// returns unbuilt is built as a private copy (dom.Adopt), so a shared
// fetch cache's trees and a caller's input are never touched. A caller
// that is done with a Result says so with Release; once the wrapper
// has also moved on to a newer Result, the pages' arrays go to the
// next extraction's builds, and the instance base's storage to the
// next extraction's base (pib.Base.Recycle), instead of to the
// collector, which for a polled page is most of what a changed version
// would allocate.
// Release is optional: a Result that is never released stays readable
// for good.
//
// The HTTP face of the same lifecycle is the /v1 API of
// internal/server, and the transformation server's wrapper sources
// poll through a Wrapper too, so scheduled ticks and one-shot
// extractions share one compiled program and one output cache;
// cmd/elogc is a thin shim over this package.
package lixto

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/concepts"
	"repro/internal/dom"
	"repro/internal/elog"
	"repro/internal/pib"
	"repro/internal/xmlenc"
)

// Wrapper is a compiled Elog wrapper: the parsed program, its
// bitset-compiled form (which owns the match memo of extractions
// without WithBatching), the XML design, and the option defaults it was
// compiled with. Compile is the only constructor. A Wrapper is safe for
// concurrent use.
type Wrapper struct {
	program  *elog.Program
	compiled *elog.CompiledProgram
	cfg      config

	// outMu guards outCache, the cross-extraction emitted-subtree cache
	// used when WithIncrementalOutput is on, and last, the Result it
	// rendered last. One transform runs at a time; concurrent Extracts
	// serialize only their (cheap, dirty-region-proportional) XML
	// rendering, never the evaluation. last is the one previous run the
	// wrapper keeps: the next extraction is answered from it when its
	// pages are unchanged, else maintained from its base
	// (elog.Evaluator.RunMaintained), reading it only, so concurrent
	// extractions may share it.
	outMu    sync.Mutex
	outCache *pib.OutputCache
	last     *Result

	// memoHits counts extractions answered with last; fetchNS is the
	// time every extraction spent in its fetcher.
	memoHits atomic.Uint64
	fetchNS  atomic.Int64
}

// builtinConcepts is the concept base of extractions without
// WithConcepts: one value, so that their bases share an origin and each
// can be maintained from another.
var builtinConcepts = concepts.NewBase()

// Compile parses, stratifies, and compiles an Elog program. Options
// become the wrapper's defaults; Extract accepts per-call overrides.
func Compile(src string, opts ...Option) (*Wrapper, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	p, err := elog.Parse(src)
	if err != nil {
		return nil, parseError(err)
	}
	cp, err := elog.Compile(p)
	if err != nil {
		return nil, stratifyError(p, err)
	}
	return &Wrapper{program: p, compiled: cp, cfg: cfg}, nil
}

// MustCompile panics on error; for examples and tests.
func MustCompile(src string, opts ...Option) *Wrapper {
	w, err := Compile(src, opts...)
	if err != nil {
		panic(err)
	}
	return w
}

// OutputStats reports the wrapper's incremental-output cache counters
// — output nodes reused and built across extractions, the instance
// deltas between consecutive ones, and the size of the instance base
// the cache retains. All zero unless the wrapper was compiled with
// WithIncrementalOutput(true) and has rendered a result; the deltas
// need two. Safe to call concurrently with Extract.
func (w *Wrapper) OutputStats() pib.OutputStats {
	w.outMu.Lock()
	defer w.outMu.Unlock()
	if w.outCache == nil {
		return pib.OutputStats{}
	}
	return w.outCache.Stats()
}

// FetchStats reports memoHits, the extractions answered with the
// retained Result because none of its pages changed (see the package
// doc), and fetchNS, the cumulative time (ns) extractions spent in
// their fetcher, the memo's re-fetches included. Safe to call
// concurrently with Extract.
func (w *Wrapper) FetchStats() (memoHits, fetchNS uint64) {
	return w.memoHits.Load(), uint64(w.fetchNS.Load())
}

// Rebind returns a wrapper sharing this wrapper's program, compiled
// form and its match memo, with additional default options applied — a
// cheap way to hand the same compiled program different fetchers or
// designs.
func (w *Wrapper) Rebind(opts ...Option) *Wrapper {
	cfg := w.cfg.clone()
	for _, o := range opts {
		o(&cfg)
	}
	return &Wrapper{program: w.program, compiled: w.compiled, cfg: cfg}
}

// parseError converts an elog parse failure into a positioned *Error.
func parseError(err error) *Error {
	var se *elog.SyntaxError
	if errors.As(err, &se) {
		return &Error{Kind: KindParse, Msg: se.Err.Error(), Pos: &Pos{Rule: se.Rule, Line: se.Line}, Err: err}
	}
	return &Error{Kind: KindParse, Msg: err.Error(), Err: err}
}

// stratifyError attributes a stratification failure to the first rule
// with a negated pattern reference, the best position available.
func stratifyError(p *elog.Program, err error) *Error {
	pos := (*Pos)(nil)
	for i, r := range p.Rules {
		for _, c := range r.Conds {
			if ref, ok := c.(elog.PatternRefCond); ok && ref.Negated {
				pos = &Pos{Rule: i + 1}
				break
			}
		}
		if pos != nil {
			break
		}
	}
	return &Error{Kind: KindStratify, Msg: err.Error(), Pos: pos, Err: err}
}

// Program returns the parsed Elog program. It must not be mutated.
func (w *Wrapper) Program() *elog.Program { return w.program }

// Compiled returns the bitset-compiled form (elog.Compile); its match
// caches persist across Extract calls.
func (w *Wrapper) Compiled() *elog.CompiledProgram { return w.compiled }

// Design returns the wrapper's XML design (the Compile-time default;
// per-call design options never mutate it).
func (w *Wrapper) Design() *pib.Design { return w.cfg.design }

// Patterns returns the pattern names the program defines, in
// first-definition order.
func (w *Wrapper) Patterns() []string { return w.program.Patterns() }

// String renders the program back in Elog concrete syntax.
func (w *Wrapper) String() string { return strings.TrimRight(w.program.String(), "\n") }

// Result is one extraction's output: the pattern instance base plus
// the XML rendering under the wrapper's design.
type Result struct {
	// Base is the pattern instance base (Section 3.1).
	Base *pib.Base

	design *pib.Design
	// w is set when this result may render through the wrapper's
	// incremental output cache (WithIncrementalOutput, and the call used
	// the wrapper's own design).
	w    *Wrapper
	once sync.Once
	doc  *xmlenc.Node

	// What the memo compares once the wrapper retains this result: the
	// output-shaping options of the run, the content keys its document
	// instances had when it ran (a tree may be mutated afterwards), and
	// whether a fetch failed (a skipped crawl link the memo cannot see).
	key    runKey
	keys   []uint64
	failed bool

	// refs counts the holders of the base and of the page trees the
	// evaluation adopted (elog.Evaluator.RunMaintained): the caller
	// until it calls Release, the wrapper while it retains the result,
	// and each extraction maintained from it until that result is
	// rendered or recycled. At zero the trees and the base are
	// recycled. released marks the caller's hold as dropped.
	refs     atomic.Int64
	released atomic.Bool
	// from is the result this one's base was maintained from, held
	// while the base's pairing with it (pib.NewBaseFrom) may be read:
	// until XML renders this result, or this result is recycled.
	from atomic.Pointer[Result]
}

// runKey is what of a call's options shapes its output besides the
// design and the pages: the memo answers a call only with a result of
// an equal key.
type runKey struct {
	concepts                   *concepts.Base
	maxDocuments, maxInstances int
	compiled                   bool
}

// XML returns the instance base transformed to XML (computed once).
// Under WithIncrementalOutput the document shares frozen subtrees with
// previous extractions' documents and must be treated as read-only.
func (r *Result) XML() *xmlenc.Node {
	r.once.Do(func() {
		defer r.dropFrom()
		if r.w == nil {
			r.doc = r.design.Transform(r.Base)
			return
		}
		r.w.outMu.Lock()
		if r.w.outCache == nil {
			r.w.outCache = pib.NewOutputCache()
		}
		r.doc = r.design.TransformIncremental(r.Base, r.w.outCache)
		old := r.w.last
		r.w.last = r
		r.refs.Add(1) // the wrapper's hold
		r.w.outMu.Unlock()
		if old != nil {
			old.drop()
		}
	})
	return r.doc
}

// Release tells the wrapper that the caller is done with the result:
// it calls none of its methods and reads none of its Base, instances or
// trees again. A document XML returned before stays readable, since it
// holds no tree or instance. Once every holder has let go, the page
// trees the extraction built and the storage of its instance base go to
// the next extractions instead of to the collector; a holder is the
// caller, the wrapper while the result is the one it retains (see the
// package doc), and an extraction that is maintained from it until
// that extraction's result is rendered or recycled. Calling Release is
// optional: a result that is never released stays readable and is left
// to the collector, as is one that Extract returned more than once (a
// memo hit). Calls after the first on one *Result do nothing.
func (r *Result) Release() {
	if r.released.CompareAndSwap(false, true) {
		r.drop()
	}
}

// drop lets go of one hold on r and, when it was the last, recycles
// the page trees the evaluation adopted and then the base. Trees it did
// not adopt (a shared fetch cache's, a caller's input) are left as they
// are.
func (r *Result) drop() {
	if r.refs.Add(-1) != 0 {
		return
	}
	for _, d := range r.Base.Instances("document") {
		d.Doc.Recycle()
	}
	r.Base.Recycle()
	r.dropFrom()
}

// dropFrom lets go of the hold on the result r was maintained from,
// once: r's base no longer reads it.
func (r *Result) dropFrom() {
	if f := r.from.Swap(nil); f != nil {
		f.drop()
	}
}

// Instances returns the instances of one pattern, in extraction order.
func (r *Result) Instances(pattern string) []*pib.Instance { return r.Base.Instances(pattern) }

// Extract runs the wrapper against one source. The context is observed
// at every fetch boundary: cancellation aborts the crawl and surfaces
// as a KindFetch error with errors.Is(err, context.Canceled) true.
// Per-call options override the wrapper's defaults for this call only.
// Under WithIncrementalOutput, a call whose pages are unchanged since
// the last rendered Result returns that Result (see the package doc).
func (w *Wrapper) Extract(ctx context.Context, src Source, opts ...Option) (*Result, error) {
	cfg := w.cfg.clone()
	for _, o := range opts {
		o(&cfg)
	}
	if src == nil {
		return nil, &Error{Kind: KindEval, Msg: "nil source"}
	}
	if err := ctx.Err(); err != nil {
		return nil, &Error{Kind: KindFetch, Msg: err.Error(), Err: err}
	}
	f, err := src.fetcher(ctx, w.program, cfg.fetcher)
	if err != nil {
		return nil, AsError(err)
	}
	key := runKey{builtinConcepts, cfg.maxDocuments, cfg.maxInstances, cfg.cache}
	if cfg.concepts != nil {
		key.concepts = cfg.concepts
	}
	cf := &ctxFetcher{ctx: ctx, inner: f, ns: &w.fetchNS}
	// Per-call design edits copy-on-write cfg.design, so pointer equality
	// means the render the output cache was built for. Only compiled
	// runs are maintained from, or answered with, the retained result.
	cached := cfg.incrementalOutput && cfg.design == w.cfg.design
	var prev *Result
	if cached && cfg.cache {
		w.outMu.Lock()
		prev = w.last
		if prev != nil {
			prev.refs.Add(1) // held until the evaluation maintained from it returns
		}
		w.outMu.Unlock()
	}
	if prev != nil && prev.key == key && !prev.failed {
		pages, same := recheck(cf, prev, cfg.concurrency)
		if same {
			w.memoHits.Add(1)
			return prev, nil // the hold is the caller's now
		}
		// The evaluation reads the trees the recheck fetched.
		cf.inner = &overlayFetcher{pages: pages, next: f}
		cf.failed.Store(false)
	}
	ev := &elog.Evaluator{Fetcher: cf, Concepts: key.concepts, MaxDocuments: cfg.maxDocuments,
		MaxInstances: cfg.maxInstances, MaxConcurrency: cfg.concurrency, Shared: cfg.batch, Incremental: true}
	var base *pib.Base
	switch {
	case !cfg.cache:
		base, err = ev.Run(w.program)
	case prev != nil:
		base, err = ev.RunMaintained(w.compiled, prev.Base)
	default:
		base, err = ev.RunMaintained(w.compiled, nil)
	}
	if err != nil {
		if prev != nil {
			prev.drop()
		}
		return nil, newError(KindEval, err)
	}
	res := &Result{Base: base, design: cfg.design, key: key, failed: cf.failed.Load()}
	res.refs.Store(1)
	if prev != nil {
		res.from.Store(prev) // the hold passes to res
	}
	if cached {
		res.w = w
	}
	if cached && cfg.cache {
		docs := base.Instances("document")
		res.keys = make([]uint64, len(docs))
		for i, d := range docs {
			res.keys[i] = d.Doc.ContentKey()
		}
	}
	return res, nil
}

// recheck re-fetches through f the pages prev's output rests on, its
// base's document instances, and reports whether each came back with
// the content key prev recorded; a failed fetch counts as a change. The
// trees it fetched are returned for the evaluation to read, keyed by
// URL. One page is fetched inline, several on at most workers
// goroutines.
func recheck(f elog.Fetcher, prev *Result, workers int) (map[string]*dom.Tree, bool) {
	docs := prev.Base.Instances("document")
	if len(docs) == 1 {
		// The common single-page wrapper: no fan-out, and nothing
		// allocated when the page is unchanged.
		t, err := f.Fetch(docs[0].URL)
		if err != nil {
			return nil, false
		}
		if t.ContentKey() == prev.keys[0] {
			return nil, true
		}
		return map[string]*dom.Tree{docs[0].URL: t}, false
	}
	trees := make([]*dom.Tree, len(docs))
	each(len(docs), workers, func(i int) {
		if t, err := f.Fetch(docs[i].URL); err == nil {
			t.ContentKey() // for a tree not parsed from bytes, hashed in parallel
			trees[i] = t
		}
	})
	pages := make(map[string]*dom.Tree, len(docs))
	same := true
	for i, t := range trees {
		if t == nil {
			same = false
			continue
		}
		pages[docs[i].URL] = t
		same = same && t.ContentKey() == prev.keys[i]
	}
	return pages, same
}

// each calls fn(i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 means GOMAXPROCS), inline when one is enough, and
// returns when every call has.
func each(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// ExtractAll extracts every source concurrently, fanning out over at
// most WithConcurrency workers (default GOMAXPROCS); each worker's
// crawl then overlaps fetches through the evaluator's frontier. The
// returned slice is aligned with srcs; a failed source leaves a nil
// Result and its error joined into the returned error.
func (w *Wrapper) ExtractAll(ctx context.Context, srcs []Source, opts ...Option) ([]*Result, error) {
	cfg := w.cfg.clone()
	for _, o := range opts {
		o(&cfg)
	}
	results := make([]*Result, len(srcs))
	errs := make([]error, len(srcs))
	each(len(srcs), cfg.concurrency, func(i int) {
		results[i], errs[i] = w.Extract(ctx, srcs[i], opts...)
	})
	return results, errors.Join(errs...)
}
