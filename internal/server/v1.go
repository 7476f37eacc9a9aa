package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/elog"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

// The /v1 wrapper-lifecycle API. Every response body is either a
// document rendering (XML, or JSON under Accept: application/json) or
// the uniform error envelope
//
//	{"error":{"kind":"parse","message":"...","pos":{"rule":2,"line":3}}}
//
// Endpoints:
//
//	POST   /v1/wrappers                 compile + register a wrapper at runtime
//	GET    /v1/wrappers                 list registered wrappers (+ scheduler/cache stats)
//	GET    /v1/wrappers/{name}          one wrapper's status
//	PATCH  /v1/wrappers/{name}          reschedule: {"interval_ms": N} moves the wrapper
//	                                    in the live deadline heap (0 = on-demand)
//	DELETE /v1/wrappers/{name}          retire a dynamic wrapper (drains its ticks)
//	POST   /v1/wrappers/{name}/extract  synchronous one-shot extraction
//	GET    /v1/wrappers/{name}/results  latest result; ?n=K for the K most recent
//	POST   /v1/extract                  anonymous one-shot (compile + extract, register nothing)
//
// Bad methods on /v1 routes get 405 with an Allow header; program
// submission is size-limited (maxProgramBytes) and rate-limited
// (Config.MaxCompilesPerMinute).

// apiError is the JSON error envelope payload.
type apiError struct {
	Kind    string     `json:"kind"`
	Message string     `json:"message"`
	Pos     *lixto.Pos `json:"pos,omitempty"`
}

type errorBody struct {
	Error apiError `json:"error"`
}

// writeError emits the uniform JSON error envelope.
func writeError(w http.ResponseWriter, status int, kind, msg string, pos *lixto.Pos) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.MarshalIndent(errorBody{apiError{Kind: kind, Message: msg, Pos: pos}}, "", "  ")
	if err != nil {
		fmt.Fprintf(w, `{"error":{"kind":%q,"message":"encoding failure"}}`, kind)
		return
	}
	w.Write(append(data, '\n'))
}

// writeSDKError maps a typed SDK error onto a status code and the
// envelope: program errors are the client's fault (400), unreachable
// sources are upstream failures (502), extraction failures are
// unprocessable programs (422).
func writeSDKError(w http.ResponseWriter, err error) {
	le := lixto.AsError(err)
	status := http.StatusInternalServerError
	switch le.Kind {
	case lixto.KindParse, lixto.KindStratify:
		status = http.StatusBadRequest
	case lixto.KindFetch:
		status = http.StatusBadGateway
	case lixto.KindEval:
		status = http.StatusUnprocessableEntity
	}
	writeError(w, status, string(le.Kind), le.Msg, le.Pos)
}

// methodNotAllowed emits 405 with the Allow header and the envelope.
func methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "method not allowed; allowed: "+allow, nil)
}

// decodeJSON reads a size-limited JSON body into dst, writing the
// envelope (413 or 400) on failure.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxProgramBytes)
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "too_large",
				fmt.Sprintf("request body exceeds %d bytes", maxProgramBytes), nil)
		} else {
			writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error(), nil)
		}
		return false
	}
	return true
}

// writeDoc renders one document as XML (or JSON per Accept). The
// response is content-negotiated, so Vary: Accept and an explicit
// charset keep intermediaries from serving the wrong encoding.
func writeDoc(w http.ResponseWriter, r *http.Request, doc *xmlenc.Node) {
	w.Header().Add("Vary", "Accept")
	if wantsJSON(r) {
		data, err := xmlenc.MarshalJSONIndent(doc)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "internal", err.Error(), nil)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write(data)
		return
	}
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	w.Write(xmlenc.MarshalIndentBytes(doc))
}

// rateLimiter is a token bucket: perMinute tokens refill continuously,
// with a burst of the same size. A nil limiter never limits.
type rateLimiter struct {
	clk    clock
	mu     sync.Mutex
	tokens float64
	last   time.Time
	rate   float64 // tokens per second
	burst  float64
}

func newRateLimiter(perMinute int, clk clock) *rateLimiter {
	if perMinute < 0 {
		return nil
	}
	return &rateLimiter{clk: clk, rate: float64(perMinute) / 60, burst: float64(perMinute)}
}

func (rl *rateLimiter) allow() bool {
	if rl == nil {
		return true
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	now := rl.clk.Now()
	if rl.last.IsZero() {
		rl.tokens = rl.burst
	} else {
		rl.tokens += now.Sub(rl.last).Seconds() * rl.rate
		if rl.tokens > rl.burst {
			rl.tokens = rl.burst
		}
	}
	rl.last = now
	if rl.tokens < 1 {
		return false
	}
	rl.tokens--
	return true
}

// ---------------------------------------------------------------------
// Request/response shapes.

// wrapperSpec is the POST /v1/wrappers body.
type wrapperSpec struct {
	// Name routes the wrapper (GET /v1/wrappers/{name}/...).
	Name string `json:"name"`
	// Program is the Elog wrapper source.
	Program string `json:"program"`
	// HTML, when set, is an inline page served at every document URL
	// the program mentions; otherwise the server's dynamic fetcher
	// resolves the program's own URLs.
	HTML string `json:"html,omitempty"`
	// IntervalMS schedules continuous extraction every so many
	// milliseconds; 0 (or absent) registers the wrapper on-demand: it
	// never ticks on a schedule, extracting only through POST
	// .../extract. Either way registration runs one synchronous
	// validation extraction, so .../results serves data immediately.
	IntervalMS int64 `json:"interval_ms,omitempty"`
	// Root is the output document element name (default "lixto").
	Root string `json:"root,omitempty"`
	// Auxiliary lists additional auxiliary patterns ("document" always
	// is).
	Auxiliary []string `json:"auxiliary,omitempty"`
}

// extractSpec selects the source of a one-shot extraction: an inline
// page, a URL resolved through the wrapper's fetcher, or (neither) the
// program's own document URLs.
type extractSpec struct {
	HTML string `json:"html,omitempty"`
	URL  string `json:"url,omitempty"`
}

// anonSpec is the POST /v1/extract body: a wrapperSpec without a name
// or schedule.
type anonSpec struct {
	Program   string   `json:"program"`
	HTML      string   `json:"html,omitempty"`
	URL       string   `json:"url,omitempty"`
	Root      string   `json:"root,omitempty"`
	Auxiliary []string `json:"auxiliary,omitempty"`
}

// wrapperInfo is one wrapper's status in /v1 responses.
type wrapperInfo struct {
	PipelineStatus
	Dynamic  bool     `json:"dynamic"`
	OnDemand bool     `json:"on_demand,omitempty"`
	Patterns []string `json:"patterns,omitempty"`
	Webhooks int      `json:"webhooks,omitempty"`
}

func (s *Server) wrapperInfo(name string, ps *pipeState) wrapperInfo {
	dynamic, onDemand := ps.flags()
	info := wrapperInfo{PipelineStatus: ps.status(name), Dynamic: dynamic, OnDemand: onDemand,
		Webhooks: ps.hooks.count()}
	if d, ok := ps.p.(*dynPipeline); ok {
		info.Patterns = d.w.Patterns()
	}
	return info
}

// ---------------------------------------------------------------------
// Handlers.

// v1NotFound covers unknown sub-resources of a wrapper
// (/v1/wrappers/{name}/bogus) with the envelope; paths outside the
// registered /v1 routes fall through to the mux's default 404.
func (s *Server) v1NotFound(w http.ResponseWriter, _ *http.Request) {
	writeError(w, http.StatusNotFound, "not_found", "no such /v1 endpoint", nil)
}

func (s *Server) v1Wrappers(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.v1ListWrappers(w, r)
	case http.MethodPost:
		s.v1CreateWrapper(w, r)
	default:
		methodNotAllowed(w, "GET, POST")
	}
}

func (s *Server) v1ListWrappers(w http.ResponseWriter, _ *http.Request) {
	pipes := s.pipesByName()
	infos := make([]wrapperInfo, len(pipes))
	for i, ps := range pipes {
		infos[i] = s.wrapperInfo(ps.name, ps)
	}
	body := s.statusReport()
	body["wrappers"] = infos
	writeJSON(w, http.StatusOK, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err.Error(), nil)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// maxIntervalMS bounds scheduled intervals (about 24 days), far below
// the int64-nanosecond overflow that would silently turn a huge
// requested interval into the default cadence.
const maxIntervalMS = int64(1) << 31

func (s *Server) v1CreateWrapper(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.AllowDynamic {
		writeError(w, http.StatusForbidden, "forbidden",
			"dynamic wrapper registration is disabled (enable Config.AllowDynamic / -allow-dynamic)", nil)
		return
	}
	var spec wrapperSpec
	if !s.decodeJSON(w, r, &spec) {
		return
	}
	if !validName(spec.Name) {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("invalid wrapper name %q", spec.Name), nil)
		return
	}
	if spec.Program == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "program is required", nil)
		return
	}
	if spec.IntervalMS < 0 || spec.IntervalMS > maxIntervalMS {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("interval_ms must be between 0 and %d", maxIntervalMS), nil)
		return
	}
	// The rate limit protects compilation, so invalid requests above do
	// not consume compile budget.
	if !s.limiter.allow() {
		writeError(w, http.StatusTooManyRequests, "rate_limited",
			fmt.Sprintf("compile rate limit of %d/min exceeded", s.cfg.MaxCompilesPerMinute), nil)
		return
	}
	ps, err := s.newDynamic(spec)
	if err != nil {
		writeSDKError(w, err)
		return
	}
	// A DELETE racing this registration either finds it whole, spec
	// persisted, or waits for it; a registration racing a DELETE of the
	// same name gets 409 until that DELETE has removed the old state.
	if err := s.insert(ps, true); err != nil {
		switch {
		case errors.Is(err, errDuplicatePipeline):
			writeError(w, http.StatusConflict, "conflict", err.Error(), nil)
		case errors.Is(err, errShuttingDown):
			writeError(w, http.StatusServiceUnavailable, "unavailable", err.Error(), nil)
		case errors.Is(err, errFirstTick):
			writeError(w, http.StatusUnprocessableEntity, "eval", err.Error(), nil)
		default:
			writeError(w, http.StatusBadRequest, "bad_request", err.Error(), nil)
		}
		return
	}
	d := ps.p.(*dynPipeline)
	writeJSON(w, http.StatusCreated, map[string]any{
		"name":        spec.Name,
		"patterns":    d.w.Patterns(),
		"on_demand":   spec.IntervalMS <= 0,
		"interval_ms": spec.IntervalMS,
		"delivered":   d.out.Len(),
	})
}

// specOptions maps the shared spec fields onto SDK options (used by
// both the registered and the anonymous compile paths).
func specOptions(root string, aux []string) []lixto.Option {
	opts := []lixto.Option{}
	if root != "" {
		opts = append(opts, lixto.WithRoot(root))
	}
	if len(aux) > 0 {
		opts = append(opts, lixto.WithAuxiliary(aux...))
	}
	return opts
}

// dynamicFetcher returns the server's dynamic fetcher, routed through
// the shared fetch/document cache when one is configured: wrappers
// monitoring the same URLs then share one fetch+parse per page per
// freshness window. Inline-page overlays are never cached (their
// content is wrapper-private); only the fall-through fetcher is.
func (s *Server) dynamicFetcher() elog.Fetcher {
	if s.cfg.DynamicFetcher == nil {
		return nil
	}
	if s.cfg.SharedCache != nil {
		return s.cfg.SharedCache.Wrap(s.cfg.DynamicFetcher)
	}
	return s.cfg.DynamicFetcher
}

func (s *Server) v1Wrapper(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	switch r.Method {
	case http.MethodGet:
		ps := s.pipe(name)
		if ps == nil {
			writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no wrapper %q", name), nil)
			return
		}
		writeJSON(w, http.StatusOK, s.wrapperInfo(name, ps))
	case http.MethodPatch:
		s.v1PatchWrapper(w, r, name)
	case http.MethodDelete:
		switch err := s.deregister(name); {
		case err == nil:
			w.WriteHeader(http.StatusNoContent)
		case errors.Is(err, errUnknownPipeline):
			writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no wrapper %q", name), nil)
		case errors.Is(err, errStaticPipeline):
			writeError(w, http.StatusForbidden, "forbidden",
				fmt.Sprintf("wrapper %q is static and cannot be deleted", name), nil)
		default:
			writeError(w, http.StatusInternalServerError, "internal", err.Error(), nil)
		}
	default:
		methodNotAllowed(w, "GET, PATCH, DELETE")
	}
}

// v1PatchWrapper reschedules a dynamic wrapper in the live deadline
// heap: {"interval_ms": N} sets a new cadence, 0 converts it to
// on-demand. No restart, no recompilation — the wrapper's compiled
// program and caches are untouched.
func (s *Server) v1PatchWrapper(w http.ResponseWriter, r *http.Request, name string) {
	var spec struct {
		IntervalMS *int64 `json:"interval_ms"`
	}
	if !s.decodeJSON(w, r, &spec) {
		return
	}
	if spec.IntervalMS == nil {
		writeError(w, http.StatusBadRequest, "bad_request", "interval_ms is required", nil)
		return
	}
	if *spec.IntervalMS < 0 || *spec.IntervalMS > maxIntervalMS {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("interval_ms must be between 0 and %d", maxIntervalMS), nil)
		return
	}
	switch err := s.setInterval(name, time.Duration(*spec.IntervalMS)*time.Millisecond); {
	case err == nil:
		ps := s.pipe(name)
		if ps == nil { // deleted while rescheduling
			writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no wrapper %q", name), nil)
			return
		}
		writeJSON(w, http.StatusOK, s.wrapperInfo(name, ps))
	case errors.Is(err, errUnknownPipeline):
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no wrapper %q", name), nil)
	case errors.Is(err, errStaticPipeline):
		writeError(w, http.StatusForbidden, "forbidden",
			fmt.Sprintf("wrapper %q is static and cannot be rescheduled", name), nil)
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error(), nil)
	}
}

func (s *Server) v1WrapperExtract(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, "POST")
		return
	}
	ps := s.pipe(r.PathValue("name"))
	if ps == nil {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("no wrapper %q", r.PathValue("name")), nil)
		return
	}
	d, ok := ps.p.(*dynPipeline)
	if !ok {
		writeError(w, http.StatusForbidden, "forbidden",
			"one-shot extraction targets dynamically registered wrappers", nil)
		return
	}
	var spec extractSpec
	if !s.decodeJSON(w, r, &spec) {
		return
	}
	src, ok := sourceFromSpec(w, spec.HTML, spec.URL)
	if !ok {
		return
	}
	var opts []lixto.Option
	if spec.URL != "" && s.cfg.DynamicFetcher != nil {
		// url extraction resolves through the server's fetcher even for
		// wrappers registered with an inline page.
		opts = append(opts, lixto.WithFetcher(s.dynamicFetcher()))
	}
	res, err := d.w.Extract(r.Context(), src, opts...)
	if err != nil {
		writeSDKError(w, err)
		return
	}
	doc := res.XML()
	// A one-shot result is a delivery like any other: it is appended to
	// the wrapper's delivery log — on the result log, when persistence
	// is on, before this response acknowledges it — shows up under
	// .../results, and fans out to watch subscribers and webhooks.
	_, err = d.out.Process("extract", doc)
	// Delivered (or refused): the document holds no tree, so the
	// wrapper may recycle this run's pages once it has moved on.
	res.Release()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err.Error(), nil)
		return
	}
	w.Header().Set("Lixto-Version", strconv.FormatUint(ps.deliver.head(), 10))
	writeDoc(w, r, doc)
}

// sourceFromSpec builds the extraction source from a one-shot body,
// writing a 400 envelope when both html and url are given.
func sourceFromSpec(w http.ResponseWriter, html, url string) (lixto.Source, bool) {
	switch {
	case html != "" && url != "":
		writeError(w, http.StatusBadRequest, "bad_request", "provide html or url, not both", nil)
		return nil, false
	case html != "":
		return lixto.HTML(html), true
	case url != "":
		return lixto.URL(url), true
	default:
		return lixto.Origin(), true
	}
}

func (s *Server) v1Results(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, "GET")
		return
	}
	name := r.PathValue("name")
	ps := s.readPipe(name)
	if ps == nil {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no wrapper %q", name), nil)
		return
	}
	if q := r.URL.Query(); !q.Has("n") && q.Get("since") == "" {
		// Without ?n= or ?since= the latest result is served raw —
		// byte-identical to running the same program through cmd/elogc —
		// straight from the published snapshot.
		sn := ps.deliver.snapshot()
		if sn == nil {
			writeError(w, http.StatusServiceUnavailable, "unavailable", "no results yet", nil)
			return
		}
		ps.serveSnapshot(w, r, sn, true)
		return
	}
	ps.serveHistory(w, r, "results", 0, true)
}

func (s *Server) v1Extract(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, "POST")
		return
	}
	if !s.cfg.AllowDynamic {
		writeError(w, http.StatusForbidden, "forbidden",
			"anonymous extraction is disabled (enable Config.AllowDynamic / -allow-dynamic)", nil)
		return
	}
	var spec anonSpec
	if !s.decodeJSON(w, r, &spec) {
		return
	}
	if spec.Program == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "program is required", nil)
		return
	}
	src, ok := sourceFromSpec(w, spec.HTML, spec.URL)
	if !ok {
		return
	}
	// The rate limit protects compilation, so invalid requests above do
	// not consume compile budget.
	if !s.limiter.allow() {
		writeError(w, http.StatusTooManyRequests, "rate_limited",
			fmt.Sprintf("compile rate limit of %d/min exceeded", s.cfg.MaxCompilesPerMinute), nil)
		return
	}
	opts := specOptions(spec.Root, spec.Auxiliary)
	if f := s.dynamicFetcher(); f != nil {
		opts = append(opts, lixto.WithFetcher(f))
	}
	lw, err := lixto.Compile(spec.Program, opts...)
	if err != nil {
		writeSDKError(w, err)
		return
	}
	res, err := lw.Extract(r.Context(), src)
	if err != nil {
		writeSDKError(w, err)
		return
	}
	doc := res.XML()
	res.Release()
	writeDoc(w, r, doc)
}
