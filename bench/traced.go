package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/bench/trace"
	"repro/bench/upstream"
	"repro/internal/dom"
	"repro/internal/elog"
	"repro/internal/fetchcache"
	"repro/internal/pib"
	"repro/internal/resultlog"
	"repro/internal/server"
	"repro/internal/transform"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

// tracedConfig sizes the traced replay.
type tracedConfig struct {
	w    workload
	seed uint64
	tmp  string
	// warm and ticks count tick groups: one tick of the one wrapper, one
	// round over a shared-page fleet (ticks/12 rounds), or one
	// register/extract/read/delete cycle of the oneshot loop (ticks/10).
	warm, ticks int
	out         string // write the spans here as JSON
}

// The replay runs the workload's page versions through every layer on
// one goroutine, twice on twin states fed by identical upstreams:
//
//	assembled   the program's own composition — transform.Engine.Tick,
//	            then an in-process GET on Server.Handler that publishes
//	            (encode, ETag, WAL append), then three more reads;
//	decomposed  the same tick spelled out call by call through each
//	            layer's public functions, one span per call.
//
// Both must produce the same bytes as each other and as the
// non-incremental reference. The sum of the decomposed stage medians
// over the assembled tick is trace.reconcile_ratio: if it leaves
// 0.9-1.1 a stage is missing from the decomposition.
//
// Tick groups cycle through three modes: spans on (timings), spans off
// (the assembled tick alone, for trace.overhead_ratio), and — every
// tenth — allocation counting with the collector parked, whose timings
// are discarded.

// Group modes.
const (
	modeSpans = iota
	modePlain
	modeAllocs
)

// groupMode cycles spans, plain, spans, ... with every tenth group — and
// the last one of a run too short to have a tenth — counting
// allocations.
func groupMode(g, groups int) int {
	switch {
	case g%10 == 9, groups < 10 && g == groups-1:
		return modeAllocs
	case g%2 == 0:
		return modeSpans
	}
	return modePlain
}

// replay is the state shared by the twins.
type replay struct {
	cfg tracedConfig
	rec *trace.Recorder
	ref *reference
	ok  bool
	// problems lists correctness failures (byte mismatches).
	problems []string

	// Whole assembled ticks (tick + publish), by mode, in ms.
	withSpans, withoutSpans []float64
	measured                int     // measured ticks (all modes)
	counting                bool    // inside a measured group
	xmlBytes                float64 // bytes encoded over measured ticks
	dirtySum                float64 // sum of measured dirty-node ratios
	dirtyN                  int
	pageBytes               int
}

func (r *replay) problem(format string, args ...any) {
	r.ok = false
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// noteTick counts one measured assembled tick and files its duration
// under the group's mode.
func (r *replay) noteTick(mode int, whole time.Duration) {
	r.measured++
	switch ms := float64(whole) / float64(time.Millisecond); mode {
	case modeSpans:
		r.withSpans = append(r.withSpans, ms)
	case modePlain:
		r.withoutSpans = append(r.withoutSpans, ms)
	}
}

// stage runs fn under a span.
func (r *replay) stage(name string, fn func()) {
	id := r.rec.Begin(name)
	fn()
	r.rec.End(id)
}

// tracedPipe is a statically registered server.Pipeline around the
// engine transform.NewWrapperEngineBatched builds — the same wiring as
// a wrapper registered through POST /v1/wrappers.
type tracedPipe struct {
	name string
	eng  *transform.Engine
	out  *transform.Collector
}

func (p *tracedPipe) PipeName() string             { return p.name }
func (p *tracedPipe) Tick() error                  { p.eng.Tick(); return p.eng.LastError() }
func (p *tracedPipe) Output() *transform.Collector { return p.out }

// ExtractionStats lets the server fold the delivery plane's splice
// counter into the block, as it does for /v1 wrappers.
func (p *tracedPipe) ExtractionStats() transform.ExtractionStats { return p.eng.ExtractionStats() }

func compileCatalogue(url string, extra ...lixto.Option) (*lixto.Wrapper, error) {
	opts := append([]lixto.Option{lixto.WithRoot(designRoot), lixto.WithAuxiliary(designAux...),
		lixto.WithIncrementalOutput(true)}, extra...)
	return lixto.Compile(program(url), opts...)
}

// assembled is the program's own composition of one fleet.
type assembled struct {
	r       *replay
	site    *upstream.Site
	fetch   *siteFetcher
	store   *resultlog.Store
	cache   *fetchcache.Cache
	batch   *elog.MatchCache
	srv     *server.Server
	handler http.Handler
	pipes   []*tracedPipe
	dir     string
}

func newAssembled(r *replay, n int) (*assembled, error) {
	w := r.cfg.w
	a := &assembled{r: r, batch: elog.NewMatchCacheSize(0)}
	var err error
	if a.dir, err = os.MkdirTemp(r.cfg.tmp, "trace-a-"); err != nil {
		return nil, err
	}
	// No background syncer: a goroutine allocating on its own would make
	// the per-stage allocation counts inexact.
	if a.store, err = resultlog.Open(a.dir, resultlog.Options{Fsync: resultlog.FsyncOff}); err != nil {
		return nil, err
	}
	a.site = upstream.NewSite(r.cfg.seed, w.spec, w.urls()...)
	if w.frozen {
		a.site.Freeze()
	}
	a.fetch = &siteFetcher{site: a.site, rec: r.rec}
	if w.sharedCache {
		a.cache = fetchcache.New(1024, time.Hour) // the replay invalidates by hand
	}
	a.srv = server.New(server.Config{ResultStore: a.store, MatchCache: a.batch, SharedCache: a.cache,
		AllowDynamic: true, DynamicFetcher: a.fetch, MaxCompilesPerMinute: -1})
	for i := 0; i < n; i++ {
		lw, err := compileCatalogue(w.pageURL(i), lixto.WithFetcher(a.fetch))
		if err != nil {
			return nil, err
		}
		eng, out, err := transform.NewWrapperEngineBatched(w.wrapperName(i), lw, a.fetch, a.cache, a.batch)
		if err != nil {
			return nil, err
		}
		p := &tracedPipe{name: w.wrapperName(i), eng: eng, out: out}
		if err := a.srv.Register(p, time.Hour); err != nil {
			return nil, err
		}
		a.pipes = append(a.pipes, p)
	}
	a.handler = a.srv.Handler()
	return a, nil
}

func (a *assembled) close() {
	if a.store != nil {
		a.store.Close()
	}
	if a.dir != "" {
		os.RemoveAll(a.dir)
	}
}

// request runs one in-process request under a span and returns the
// response. hdr lists header names and values in turn.
func (a *assembled) request(span, method, path, body string, hdr ...string) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	rr := httptest.NewRecorder()
	id := a.r.rec.Begin(span)
	a.handler.ServeHTTP(rr, req)
	a.r.rec.End(id)
	return rr
}

// tick runs wrapper i's assembled tick and its reads; it returns the
// published bytes and the whole tick's (tick + publish) duration.
func (a *assembled) tick(i int) ([]byte, time.Duration) {
	p := a.pipes[i]
	t0 := time.Now()
	a.r.stage("transform.tick", p.eng.Tick)
	pub := a.request("server.publish", http.MethodGet, "/"+p.name, "")
	whole := time.Since(t0)
	if pub.Code != http.StatusOK {
		a.r.problem("assembled GET /%s: status %d", p.name, pub.Code)
		return nil, whole
	}
	etag := pub.Header().Get("ETag")
	a.request("server.read", http.MethodGet, "/"+p.name, "")
	if rr := a.request("server.read304", http.MethodGet, "/"+p.name, "", "If-None-Match", etag); rr.Code != http.StatusNotModified {
		a.r.problem("assembled conditional GET /%s: status %d", p.name, rr.Code)
	}
	a.request("server.read_jsongz", http.MethodGet, "/"+p.name, "", "Accept", "application/json", "Accept-Encoding", "gzip")
	return pub.Body.Bytes(), whole
}

// decomposed is the same fleet spelled out layer by layer.
type decomposed struct {
	r     *replay
	store *resultlog.Store
	cache *fetchcache.Cache
	batch *elog.MatchCache
	dir   string
	ws    []*decomposedWrapper
	// fetch is the fetcher ticks go through (the cache when on).
	fetch elog.Fetcher
}

type decomposedWrapper struct {
	url      string
	cp       *elog.CompiledProgram
	design   *pib.Design
	oc       *pib.OutputCache
	enc      *xmlenc.Encoder
	out      *transform.Collector
	log      *resultlog.Log
	lastFP   uint64
	lastDoc  *xmlenc.Node // the poll memo's document
	pubDoc   *xmlenc.Node // the document last encoded
	pubXML   []byte
	prevBase *pib.Base
	prevTree *dom.Tree
	version  uint64
}

func newDecomposed(r *replay, n int) (*decomposed, error) {
	w := r.cfg.w
	d := &decomposed{r: r, batch: elog.NewMatchCacheSize(0)}
	var err error
	if d.dir, err = os.MkdirTemp(r.cfg.tmp, "trace-d-"); err != nil {
		return nil, err
	}
	if d.store, err = resultlog.Open(d.dir, resultlog.Options{Fsync: resultlog.FsyncOff}); err != nil {
		return nil, err
	}
	site := upstream.NewSite(r.cfg.seed, w.spec, w.urls()...)
	if w.frozen {
		site.Freeze()
	}
	d.fetch = &siteFetcher{site: site, rec: r.rec}
	if w.sharedCache {
		d.cache = fetchcache.New(1024, time.Hour)
		d.fetch = d.cache.Wrap(d.fetch)
	}
	for i := 0; i < n; i++ {
		url := w.pageURL(i)
		lw, err := compileCatalogue(url)
		if err != nil {
			return nil, err
		}
		log, err := d.store.Log(w.wrapperName(i))
		if err != nil {
			return nil, err
		}
		d.batch.Attach()
		d.ws = append(d.ws, &decomposedWrapper{url: url, cp: lw.Compiled(), design: lw.Design(),
			oc: pib.NewOutputCache(), enc: xmlenc.NewEncoder(), log: log,
			out: &transform.Collector{CompName: w.wrapperName(i) + ".out"}})
	}
	return d, nil
}

func (d *decomposed) close() {
	if d.store != nil {
		d.store.Close()
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// tick is one wrapper tick through the layers' public functions, in
// the order transform.WrapperSource.Poll and the delivery plane's
// publish run them.
func (d *decomposed) tick(i int) []byte {
	r, w := d.r, d.ws[i]
	var tree *dom.Tree
	var err error
	if d.cache != nil {
		r.stage("fetchcache.fetch", func() { tree, err = d.fetch.Fetch(w.url) })
	} else {
		tree, err = d.fetch.Fetch(w.url) // spans: upstream.render, htmlparse.parse
	}
	if err != nil {
		r.problem("decomposed fetch %s: %v", w.url, err)
		return nil
	}
	var fp uint64
	r.stage("dom.warm", func() { tree.Warm(); fp = tree.Fingerprint() })
	if w.prevTree != nil && r.counting {
		r.dirtySum += upstream.DirtyRatio(w.prevTree, tree)
		r.dirtyN++
	}
	w.prevTree = tree

	doc := w.lastDoc
	if doc == nil || fp != w.lastFP { // the poll memo misses
		var base *pib.Base
		r.stage("elog.eval", func() {
			ev := elog.NewEvaluator(elog.MapFetcher{w.url: tree})
			ev.Incremental = true
			ev.Shared = d.batch
			base, err = ev.RunCompiled(w.cp)
		})
		if err != nil {
			r.problem("decomposed eval %s: %v", w.url, err)
			return nil
		}
		if w.prevBase != nil {
			// Timed alone for pib.diff_ms; TransformIncremental runs its
			// own Diff inside, which is what the tick pays.
			r.stage("pib.diff", func() { pib.Diff(w.prevBase, base) })
		}
		w.prevBase = base
		r.stage("pib.transform", func() { doc = w.design.TransformIncremental(base, w.oc) })
		w.lastFP, w.lastDoc = fp, doc
	}
	r.stage("transform.collect", func() { w.out.Process("src", doc) })
	w.version++
	rec := resultlog.Record{Kind: resultlog.KindNoop, Version: w.version}
	if doc != w.pubDoc {
		var xml []byte
		r.stage("xmlenc.encode", func() { xml = w.enc.MarshalIndentBytes(doc) })
		// The delivery plane hashes the bytes twice: the strong ETag and
		// the WAL record's fingerprint.
		r.stage("server.etag", func() {
			_ = etagOf(xml)
			rec.Fingerprint = hashBytes(xml)
		})
		if !bytes.Equal(xml, w.pubXML) {
			rec.Kind, rec.XML = resultlog.KindSnapshot, xml
			w.pubXML = xml
		}
		w.pubDoc = doc
		if r.counting {
			r.xmlBytes += float64(len(xml))
		}
	}
	r.stage("resultlog.append", func() { err = w.log.Append(rec) })
	if err != nil {
		r.problem("decomposed WAL append: %v", err)
	}
	r.stage("resultlog.sync", func() { w.log.Sync() })
	return w.pubXML
}

// runTraced is the traced run. It returns the per-layer metrics it
// measured and whether every byte-identity check held.
func runTraced(cfg tracedConfig, e2e *e2eResult) (map[string]float64, bool, error) {
	// One goroutine on one P, so span nesting is unambiguous and malloc
	// deltas belong to the stage that made them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := &replay{cfg: cfg, rec: trace.New(), ref: newReference(cfg.seed, cfg.w.spec), ok: true}
	r.rec.Enabled = false
	r.pageBytes = len(upstream.Page(cfg.seed, cfg.w.spec, cfg.w.pageURL(0), 0))

	layers := map[string]float64{}
	compileTimes(layers, cfg.w.pageURL(0))
	var err error
	if cfg.w.oneshot {
		err = r.runOneshot(layers)
	} else {
		err = r.runFleet(layers)
	}
	if err != nil {
		return nil, false, err
	}
	for _, p := range r.problems {
		fmt.Println("FAILED traced:", p)
	}
	r.summarize(layers, e2e)
	if cfg.out != "" {
		f, err := os.Create(cfg.out)
		if err != nil {
			return nil, false, err
		}
		if err := r.rec.WriteJSON(f); err != nil {
			f.Close()
			return nil, false, err
		}
		if err := f.Close(); err != nil {
			return nil, false, err
		}
	}
	return layers, r.ok, nil
}

// compileTimes measures compilation alone: the Elog parse+compile and
// the SDK's Compile around it, median of five.
func compileTimes(layers map[string]float64, url string) {
	var el, lx []float64
	src := program(url)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		p, err := elog.Parse(src)
		if err == nil {
			_, err = elog.Compile(p)
		}
		if err != nil {
			return
		}
		el = append(el, float64(time.Since(t0))/float64(time.Millisecond))
		t0 = time.Now()
		if _, err := compileCatalogue(url); err != nil {
			return
		}
		lx = append(lx, float64(time.Since(t0))/float64(time.Millisecond))
	}
	layers["elog.compile_ms"], layers["lixto.compile_ms"] = median(el), median(lx)
}

// enter sets the recorder up for tick group g and returns what to undo
// when the group ends.
func (r *replay) enter(g, groups int) (mode int, leave func()) {
	r.rec.SetTick(g)
	if g < 0 { // warm-up
		r.rec.Enabled = false
		return modePlain, func() {}
	}
	mode = groupMode(g, groups)
	switch mode {
	case modeSpans:
		r.rec.Enabled, r.rec.CountAllocs = true, false
	case modePlain:
		r.rec.Enabled = false
	case modeAllocs:
		// Two collections empty every sync.Pool (fmt's, net/http's), and
		// with the collector parked none is refilled or cleared mid-tick:
		// the tick starts from the same allocator state in every run.
		runtime.GC()
		runtime.GC()
		old := debug.SetGCPercent(-1)
		r.rec.Enabled, r.rec.CountAllocs = true, true
		return mode, func() {
			r.rec.Enabled, r.rec.CountAllocs = false, false
			debug.SetGCPercent(old)
		}
	}
	return mode, func() { r.rec.Enabled = false }
}

// runFleet replays a scheduled workload: one wrapper, or every wrapper
// of a shared-page fleet per round.
func (r *replay) runFleet(layers map[string]float64) error {
	w := r.cfg.w
	n, warm, groups := 1, r.cfg.warm, r.cfg.ticks
	if w.sharedURL {
		n, warm, groups = w.fleet, 1, max(3, r.cfg.ticks/12)
	}
	a, err := newAssembled(r, n)
	if err != nil {
		return err
	}
	defer a.close()
	d, err := newDecomposed(r, n)
	if err != nil {
		return err
	}
	defer d.close()

	var base counters
	for g := -warm; g < groups; g++ {
		if g == 0 {
			base = a.counters()
		}
		r.counting = g >= 0
		mode, leave := r.enter(g, groups)
		if a.cache != nil {
			a.cache.Invalidate(w.pageURL(0))
			d.cache.Invalidate(w.pageURL(0))
		}
		for i := 0; i < n; i++ {
			got, whole := a.tick(i)
			want := d.tick(i)
			if g < 0 {
				continue
			}
			r.noteTick(mode, whole)
			if !bytes.Equal(got, want) {
				r.problem("group %d wrapper %d: assembled and decomposed bytes differ (%d vs %d)", g, i, len(got), len(want))
			}
			if v := a.site.Version(w.pageURL(i)); i == 0 && (v%sampleEvery == 0 || g == groups-1) {
				refXML, err := r.ref.bytesFor(w.pageURL(i), v)
				if err != nil {
					leave()
					return err
				}
				if !bytes.Equal(got, refXML) {
					r.problem("group %d: version %d differs from the non-incremental reference", g, v)
				}
			}
		}
		leave()
	}
	a.counters().ratiosSince(base, layers, r)
	return nil
}

// counters are the program's public counters the ratios are made of.
type counters [numCounters]float64

const (
	cPollHits = iota
	cSubtreeHits
	cSubtreeMisses
	cDirtyNodes
	cReusedNodes
	cOutputReused
	cOutputBuilt
	cSplicedBytes
	cWALBytes
	cMatchHits
	cMatchMisses
	numCounters
)

func (a *assembled) counters() counters {
	var c counters
	for _, st := range a.srv.Status() {
		if e := st.Extraction; e != nil {
			c[cPollHits] += float64(e.PollCacheHits)
			c[cSubtreeHits] += float64(e.SubtreeHits)
			c[cSubtreeMisses] += float64(e.SubtreeMisses)
			c[cDirtyNodes] += float64(e.DirtyNodes)
			c[cReusedNodes] += float64(e.ReusedNodes)
			c[cOutputReused] += float64(e.OutputReusedNodes)
			c[cOutputBuilt] += float64(e.OutputBuiltNodes)
			c[cSplicedBytes] += float64(e.EncodeSplicedBytes)
		}
	}
	c[cWALBytes] = float64(a.store.Stats().BytesAppended)
	batch := a.batch.Report()
	c[cMatchHits], c[cMatchMisses] = float64(batch.Hits), float64(batch.Misses)
	return c
}

// ratiosSince turns the counters' growth since base into the
// counter-derived per-layer metrics.
func (c counters) ratiosSince(base counters, layers map[string]float64, r *replay) {
	for i := range c {
		c[i] -= base[i]
	}
	share := func(part, rest int) float64 { return ratio(c[part], c[part]+c[rest]) }
	ticks := float64(r.measured)
	layers["transform.poll_memo_hit_ratio"] = ratio(c[cPollHits], ticks)
	layers["elog.subtree_hit_ratio"] = share(cSubtreeHits, cSubtreeMisses)
	layers["elog.reused_node_ratio"] = share(cReusedNodes, cDirtyNodes)
	layers["elog.match_cache_hit_ratio"] = share(cMatchHits, cMatchMisses)
	layers["pib.reused_node_ratio"] = share(cOutputReused, cOutputBuilt)
	layers["resultlog.bytes_per_tick"] = ratio(c[cWALBytes], ticks)
	layers["resultlog.write_amp"] = ratio(c[cWALBytes], r.xmlBytes)
	layers["xmlenc.spliced_byte_ratio"] = ratio(c[cSplicedBytes], r.xmlBytes)
}

// runOneshot replays the control-plane cycle.
func (r *replay) runOneshot(layers map[string]float64) error {
	a, err := newAssembled(r, 0)
	if err != nil {
		return err
	}
	defer a.close()
	dsite := upstream.NewSite(r.cfg.seed, r.cfg.w.spec, oneshotURL)
	dfetch := &siteFetcher{site: dsite, rec: r.rec}
	ddir, err := os.MkdirTemp(r.cfg.tmp, "trace-d-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(ddir)
	dstore, err := resultlog.Open(ddir, resultlog.Options{Fsync: resultlog.FsyncOff})
	if err != nil {
		return err
	}
	defer dstore.Close()

	warm, cycles := 2, max(3, r.cfg.ticks/10)
	ctx := context.Background()
	var base counters
	defer func() { a.counters().ratiosSince(base, layers, r) }()
	for g := -warm; g < cycles; g++ {
		if g == 0 {
			base = a.counters()
		}
		mode, leave := r.enter(g, cycles)
		r.counting = g >= 0
		name := fmt.Sprintf("os%d", g+warm)
		spec, err := json.Marshal(map[string]any{"name": name, "program": program(oneshotURL),
			"root": designRoot, "auxiliary": designAux})
		if err != nil {
			leave()
			return err
		}

		// Decomposed: compile, then per extraction evaluate, transform,
		// collect, encode, hash, append, and marshal the response.
		var lw *lixto.Wrapper
		r.stage("lixto.compile", func() { lw, err = compileCatalogue(oneshotURL, lixto.WithFetcher(dfetch)) })
		if err != nil {
			leave()
			return err
		}
		log, err := dstore.Log(name)
		if err != nil {
			leave()
			return err
		}
		out := &transform.Collector{CompName: name + ".out"}
		enc := xmlenc.NewEncoder()
		extract := func(version uint64) []byte {
			var res *lixto.Result
			var xml, body []byte
			var doc *xmlenc.Node
			r.stage("lixto.extract", func() { res, err = lw.Extract(ctx, lixto.Origin()) })
			if err != nil {
				r.problem("decomposed extract: %v", err)
				return nil
			}
			r.stage("pib.transform", func() { doc = res.XML() })
			r.stage("transform.collect", func() { out.Process("extract", doc) })
			r.stage("xmlenc.encode", func() { xml = enc.MarshalIndentBytes(doc) })
			if r.counting {
				r.xmlBytes += float64(len(xml))
			}
			rec := resultlog.Record{Kind: resultlog.KindSnapshot, Version: version, XML: xml}
			r.stage("server.etag", func() {
				_ = etagOf(xml)
				rec.Fingerprint = hashBytes(xml)
			})
			r.stage("resultlog.append", func() { err = log.Append(rec) })
			if err != nil {
				r.problem("decomposed WAL append: %v", err)
			}
			r.stage("xmlenc.marshal", func() { body = xmlenc.MarshalIndentBytes(doc) })
			return body
		}

		if rr := a.request("server.register", http.MethodPost, "/v1/wrappers", string(spec)); rr.Code != http.StatusCreated {
			r.problem("assembled register: status %d: %s", rr.Code, rr.Body.String())
			leave()
			continue
		}
		extract(1) // the registration's own extraction
		for k := 0; k < extractsPerCycle; k++ {
			t0 := time.Now()
			rr := a.request("server.extract", http.MethodPost, "/v1/wrappers/"+name+"/extract", "{}")
			whole := time.Since(t0)
			want := extract(uint64(k + 2))
			if g < 0 {
				continue
			}
			r.noteTick(mode, whole)
			if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), want) {
				r.problem("cycle %d extract %d: assembled (status %d) and decomposed bytes differ", g, k, rr.Code)
			}
			if v := a.site.Version(oneshotURL); v%sampleEvery == 0 {
				refXML, err := r.ref.bytesFor(oneshotURL, v)
				if err != nil {
					leave()
					return err
				}
				if !bytes.Equal(rr.Body.Bytes(), refXML) {
					r.problem("cycle %d: version %d differs from the non-incremental reference", g, v)
				}
			}
		}
		a.request("server.read", http.MethodGet, "/v1/wrappers/"+name+"/results", "")
		if rr := a.request("server.delete", http.MethodDelete, "/v1/wrappers/"+name, ""); rr.Code != http.StatusNoContent {
			r.problem("assembled delete: status %d", rr.Code)
		}
		dstore.Remove(name)
		leave()
	}
	return nil
}

// summarize turns the spans into per-layer metrics.
func (r *replay) summarize(layers map[string]float64, e2e *e2eResult) {
	spans := r.rec.Spans()
	self := trace.SelfTimes(spans)
	selfAllocs := trace.SelfAllocs(spans)
	durMS := map[string][]float64{}  // whole span, timing groups only
	selfMS := map[string][]float64{} // self time, timing groups only
	allocs := map[string][]float64{}
	hit, miss := []float64{}, []float64{}
	// A fetchcache.fetch span that has a child went upstream.
	hasChild := map[int]bool{}
	for _, s := range spans {
		if s.Parent >= 0 {
			hasChild[s.Parent] = true
		}
	}
	for i, s := range spans {
		if s.Counted {
			allocs[s.Name] = append(allocs[s.Name], float64(selfAllocs[i]))
			continue
		}
		ms := float64(s.Duration()) / float64(time.Millisecond)
		durMS[s.Name] = append(durMS[s.Name], ms)
		selfMS[s.Name] = append(selfMS[s.Name], float64(self[i])/float64(time.Millisecond))
		if s.Name == "fetchcache.fetch" {
			if hasChild[i] {
				miss = append(miss, ms)
			} else {
				hit = append(hit, ms)
			}
		}
	}
	med := func(name string) float64 { return median(selfMS[name]) }
	layers["upstream.render_us"] = med("upstream.render") * 1000
	layers["htmlparse.parse_ms"] = med("htmlparse.parse")
	layers["htmlparse.mb_per_s"] = ratio(float64(r.pageBytes)/(1<<20), med("htmlparse.parse")/1000)
	layers["htmlparse.allocs"] = median(allocs["htmlparse.parse"])
	layers["dom.warm_ms"] = med("dom.warm")
	layers["dom.allocs"] = median(allocs["dom.warm"])
	layers["fetchcache.hit_us"] = median(hit) * 1000
	layers["fetchcache.miss_ms"] = median(miss)
	layers["transform.tick_ms"] = median(durMS["transform.tick"])
	layers["transform.collect_us"] = med("transform.collect") * 1000
	layers["elog.eval_ms"] = med("elog.eval")
	layers["elog.allocs"] = median(allocs["elog.eval"])
	layers["pib.transform_ms"] = med("pib.transform")
	layers["pib.diff_ms"] = med("pib.diff")
	layers["pib.allocs"] = median(allocs["pib.transform"])
	layers["xmlenc.encode_ms"] = med("xmlenc.encode")
	layers["xmlenc.allocs"] = median(allocs["xmlenc.encode"])
	layers["xmlenc.bytes_out"] = ratio(r.xmlBytes, float64(r.measured))
	layers["resultlog.append_us"] = med("resultlog.append") * 1000
	layers["resultlog.sync_ms"] = med("resultlog.sync")
	layers["server.publish_ms"] = median(durMS["server.publish"])
	layers["server.etag_us"] = med("server.etag") * 1000
	layers["server.read_us"] = median(durMS["server.read"]) * 1000
	layers["server.read304_us"] = median(durMS["server.read304"]) * 1000
	layers["server.read_jsongz_us"] = median(durMS["server.read_jsongz"]) * 1000
	layers["lixto.extract_ms"] = med("lixto.extract")
	layers["upstream.dirty_node_ratio"] = ratio(r.dirtySum, float64(r.dirtyN))

	// Reconcile: the decomposed stages on the tick path against the
	// assembled whole. pib.diff and resultlog.sync are timed for their
	// own sake and are not on it (Diff runs inside the transform; the
	// batch syncer runs beside the tick).
	var stages []string
	var whole float64
	if r.cfg.w.oneshot {
		layers["lixto.compile_ms"] = med("lixto.compile")
		layers["server.extract_ms"] = median(durMS["server.extract"])
		layers["server.register_ms"] = median(durMS["server.register"])
		stages = []string{"upstream.render", "htmlparse.parse", "lixto.extract", "pib.transform",
			"transform.collect", "xmlenc.encode", "server.etag", "resultlog.append", "xmlenc.marshal"}
		whole = median(durMS["server.extract"])
	} else {
		stages = []string{"upstream.render", "htmlparse.parse", "dom.warm", "elog.eval", "pib.transform",
			"transform.collect", "xmlenc.encode", "server.etag", "resultlog.append"}
		if r.cfg.w.sharedCache {
			// Behind the cache a tick pays the cache lookup; render, parse
			// and warm happen once a round inside the miss.
			stages = []string{"fetchcache.fetch", "dom.warm", "elog.eval", "pib.transform",
				"transform.collect", "xmlenc.encode", "server.etag", "resultlog.append"}
		}
		whole = median(durMS["transform.tick"]) + median(durMS["server.publish"])
	}
	sum := 0.0
	for _, s := range stages {
		if s == "fetchcache.fetch" {
			sum += mean(durMS[s]) // hits and one miss a round: the mean is what a tick pays
			continue
		}
		sum += med(s)
	}
	layers["trace.reconcile_ratio"] = ratio(sum, whole)
	layers["trace.overhead_ratio"] = ratio(median(r.withSpans), median(r.withoutSpans))
	layers["trace.e2e_ratio"] = ratio(whole, e2e.tickCPUms)
}
