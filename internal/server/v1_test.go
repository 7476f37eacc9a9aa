package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/elog"
	"repro/internal/transform"
	"repro/internal/web"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

const v1Page = `
<html><body>
  <table class="books">
    <tr class="book"><td class="title">Foundations of Databases</td><td class="price">$ 54.00</td></tr>
    <tr class="book"><td class="title">The Complexity of XPath</td><td class="price">$ 9.50</td></tr>
  </table>
</body></html>`

const v1Wrapper = `page(S, X)  <- document("shop", S), subelem(S, .body, X)
book(S, X)  <- page(_, S), subelem(S, (?.tr, [(class, book, exact)]), X)
title(S, X) <- book(_, S), subelem(S, (?.td, [(class, title, exact)]), X)
price(S, X) <- book(_, S), subelem(S, (?.td, [(class, price, exact)]), X)`

// do issues a request with an optional JSON body and returns status,
// body, and headers.
func do(t *testing.T, method, url string, body any, header ...string) (int, string, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data), resp.Header
}

// envelope decodes the JSON error envelope.
func envelope(t *testing.T, body string) apiError {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil {
		t.Fatalf("not an error envelope: %q (%v)", body, err)
	}
	return eb.Error
}

func newDynamicServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.AllowDynamic = true
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestV1DisabledByDefault(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers", map[string]any{"name": "w", "program": v1Wrapper})
	if code != 403 || envelope(t, body).Kind != "forbidden" {
		t.Fatalf("disabled POST: %d %s", code, body)
	}
	code, body, _ = do(t, "POST", ts.URL+"/v1/extract", map[string]any{"program": v1Wrapper})
	if code != 403 || envelope(t, body).Kind != "forbidden" {
		t.Fatalf("disabled extract: %d %s", code, body)
	}
}

// TestV1LifecycleAndByteIdentity is the acceptance check: a wrapper
// POSTed at runtime serves results immediately, and those results are
// byte-identical to running the same source through the SDK the way
// cmd/elogc does.
func TestV1LifecycleAndByteIdentity(t *testing.T) {
	_, ts := newDynamicServer(t, Config{})

	code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers",
		map[string]any{"name": "books", "program": v1Wrapper, "html": v1Page, "auxiliary": []string{"page"}})
	if code != 201 {
		t.Fatalf("create: %d %s", code, body)
	}
	var created struct {
		Name     string   `json:"name"`
		Patterns []string `json:"patterns"`
		OnDemand bool     `json:"on_demand"`
	}
	if err := json.Unmarshal([]byte(body), &created); err != nil {
		t.Fatal(err)
	}
	if created.Name != "books" || !created.OnDemand || len(created.Patterns) != 4 {
		t.Fatalf("created: %+v", created)
	}

	// The elogc path: compile through the SDK with the same design and
	// render with MarshalIndent.
	lw, err := lixto.Compile(v1Wrapper, lixto.WithAuxiliary("page"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := lw.Extract(context.Background(), lixto.HTML(v1Page))
	if err != nil {
		t.Fatal(err)
	}
	want := marshalIndent(res)

	code, got, hdr := do(t, "GET", ts.URL+"/v1/wrappers/books/results", nil)
	if code != 200 || hdr.Get("Content-Type") != "application/xml; charset=utf-8" {
		t.Fatalf("results: %d %s", code, hdr.Get("Content-Type"))
	}
	if got != want {
		t.Fatalf("results not byte-identical to the elogc path:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if !strings.Contains(got, "Foundations of Databases") {
		t.Fatalf("results content: %s", got)
	}

	// Status and listing.
	code, body, _ = do(t, "GET", ts.URL+"/v1/wrappers/books", nil)
	if code != 200 || !strings.Contains(body, `"dynamic": true`) {
		t.Fatalf("status: %d %s", code, body)
	}
	code, body, _ = do(t, "GET", ts.URL+"/v1/wrappers", nil)
	if code != 200 || !strings.Contains(body, `"books"`) {
		t.Fatalf("list: %d %s", code, body)
	}

	// One-shot extraction with a fresh inline page delivers a new result.
	page2 := strings.ReplaceAll(v1Page, "Foundations of Databases", "Principles of Database Systems")
	code, body, _ = do(t, "POST", ts.URL+"/v1/wrappers/books/extract", map[string]any{"html": page2})
	if code != 200 || !strings.Contains(body, "Principles of Database Systems") {
		t.Fatalf("extract: %d %s", code, body)
	}
	code, body, _ = do(t, "GET", ts.URL+"/v1/wrappers/books/results?n=10", nil)
	if code != 200 || !strings.Contains(body, `count="2"`) {
		t.Fatalf("results list: %d %s", code, body)
	}

	// The legacy route serves the same pipeline.
	code, body, _ = do(t, "GET", ts.URL+"/books", nil)
	if code != 200 || !strings.Contains(body, "book") {
		t.Fatalf("legacy latest: %d %s", code, body)
	}

	// Retire.
	code, _, _ = do(t, "DELETE", ts.URL+"/v1/wrappers/books", nil)
	if code != 204 {
		t.Fatalf("delete: %d", code)
	}
	code, body, _ = do(t, "GET", ts.URL+"/v1/wrappers/books", nil)
	if code != 404 || envelope(t, body).Kind != "not_found" {
		t.Fatalf("after delete: %d %s", code, body)
	}
	code, _, _ = do(t, "DELETE", ts.URL+"/v1/wrappers/books", nil)
	if code != 404 {
		t.Fatalf("double delete: %d", code)
	}
}

// marshalIndent renders a result exactly the way cmd/elogc prints it.
func marshalIndent(res *lixto.Result) string {
	return xmlenc.MarshalIndent(res.XML())
}

func TestV1AnonymousExtract(t *testing.T) {
	_, ts := newDynamicServer(t, Config{})
	code, body, hdr := do(t, "POST", ts.URL+"/v1/extract",
		map[string]any{"program": v1Wrapper, "html": v1Page, "root": "books", "auxiliary": []string{"page"}})
	if code != 200 || hdr.Get("Content-Type") != "application/xml; charset=utf-8" {
		t.Fatalf("anon extract: %d %s", code, body)
	}
	if !strings.Contains(body, "<books>") || !strings.Contains(body, "The Complexity of XPath") {
		t.Fatalf("anon extract content: %s", body)
	}
	// JSON rendering honors Accept.
	code, body, hdr = do(t, "POST", ts.URL+"/v1/extract",
		map[string]any{"program": v1Wrapper, "html": v1Page},
		"Accept", "application/json")
	if code != 200 || hdr.Get("Content-Type") != "application/json; charset=utf-8" {
		t.Fatalf("anon extract JSON: %d %s %s", code, hdr.Get("Content-Type"), body)
	}
	if !json.Valid([]byte(body)) {
		t.Fatalf("not JSON: %s", body)
	}
}

func TestV1ErrorEnvelope(t *testing.T) {
	_, ts := newDynamicServer(t, Config{})

	// Parse error: positioned envelope.
	code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers",
		map[string]any{"name": "bad", "program": "a(S, X) <- document(\"u\", S), subelem(S, .body, X)\nbroken("})
	if code != 400 {
		t.Fatalf("parse error status: %d %s", code, body)
	}
	e := envelope(t, body)
	if e.Kind != "parse" || e.Pos == nil || e.Pos.Rule != 2 || e.Pos.Line != 2 {
		t.Fatalf("parse envelope: %+v", e)
	}

	// Unknown wrapper.
	code, body, _ = do(t, "GET", ts.URL+"/v1/wrappers/nope/results", nil)
	if code != 404 || envelope(t, body).Kind != "not_found" {
		t.Fatalf("unknown wrapper: %d %s", code, body)
	}

	// Bad method: 405 with Allow and the envelope.
	code, body, hdr := do(t, "PUT", ts.URL+"/v1/wrappers", nil)
	if code != 405 || hdr.Get("Allow") != "GET, POST" || envelope(t, body).Kind != "method_not_allowed" {
		t.Fatalf("405: %d Allow=%q %s", code, hdr.Get("Allow"), body)
	}
	code, _, hdr = do(t, "DELETE", ts.URL+"/v1/wrappers/x/results", nil)
	if code != 405 || hdr.Get("Allow") != "GET" {
		t.Fatalf("405 results: %d Allow=%q", code, hdr.Get("Allow"))
	}
	code, _, hdr = do(t, "GET", ts.URL+"/v1/extract", nil)
	if code != 405 || hdr.Get("Allow") != "POST" {
		t.Fatalf("405 extract: %d Allow=%q", code, hdr.Get("Allow"))
	}

	// Unknown sub-resource under a wrapper.
	code, body, _ = do(t, "GET", ts.URL+"/v1/wrappers/x/bogus", nil)
	if code != 404 || envelope(t, body).Kind != "not_found" {
		t.Fatalf("bogus subresource: %d %s", code, body)
	}

	// Invalid JSON body.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/wrappers", strings.NewReader("{not json"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 || envelope(t, string(data)).Kind != "bad_request" {
		t.Fatalf("bad JSON: %d %s", resp.StatusCode, data)
	}

	// Program missing document entry points.
	code, body, _ = do(t, "POST", ts.URL+"/v1/extract", map[string]any{
		"program": `a(S, X) <- document("u", S), subelem(S, .body, X)`})
	if code != 422 || envelope(t, body).Kind != "eval" {
		t.Fatalf("no fetcher: %d %s", code, body)
	}
}

func TestV1SizeLimit(t *testing.T) {
	_, ts := newDynamicServer(t, Config{})
	big := strings.Repeat("x", maxProgramBytes)
	code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers",
		map[string]any{"name": "big", "program": v1Wrapper, "html": big})
	if code != 413 || envelope(t, body).Kind != "too_large" {
		t.Fatalf("oversized body: %d %s", code, body)
	}
}

func TestV1RateLimit(t *testing.T) {
	clk := newFakeClock()
	_, ts := newDynamicServer(t, Config{MaxCompilesPerMinute: 3, clock: clk})
	compile := func(want int) {
		t.Helper()
		code, body, _ := do(t, "POST", ts.URL+"/v1/extract",
			map[string]any{"program": v1Wrapper, "html": v1Page})
		if code != want || code == 429 && envelope(t, body).Kind != "rate_limited" {
			t.Fatalf("compile: %d %s, want %d", code, body, want)
		}
	}
	// The burst is the per-minute rate; then one token per 20 s of
	// clock.
	for i := 0; i < 3; i++ {
		compile(200)
	}
	compile(429)
	clk.Advance(19 * time.Second)
	compile(429)
	clk.Advance(2 * time.Second)
	compile(200)
	compile(429)
}

func TestV1StaticPipelineProtected(t *testing.T) {
	s, ts := newDynamicServer(t, Config{})
	if err := s.Register(newFakePipe("static", 0), time.Hour); err != nil {
		t.Fatal(err)
	}
	code, body, _ := do(t, "DELETE", ts.URL+"/v1/wrappers/static", nil)
	if code != 403 || envelope(t, body).Kind != "forbidden" {
		t.Fatalf("static delete: %d %s", code, body)
	}
	code, body, _ = do(t, "POST", ts.URL+"/v1/wrappers/static/extract", map[string]any{"html": v1Page})
	if code != 403 {
		t.Fatalf("static extract: %d %s", code, body)
	}
	// Duplicate name against the static pipeline.
	code, body, _ = do(t, "POST", ts.URL+"/v1/wrappers",
		map[string]any{"name": "static", "program": v1Wrapper, "html": v1Page})
	if code != 409 || envelope(t, body).Kind != "conflict" {
		t.Fatalf("duplicate: %d %s", code, body)
	}
}

// TestV1URLExtractUsesServerFetcher: a wrapper registered with an
// inline page can still extract from a url, resolved through the
// server's dynamic fetcher.
func TestV1URLExtractUsesServerFetcher(t *testing.T) {
	sim := web.New()
	web.NewBookSite(7, 5).Register(sim, "books.example.com")
	_, ts := newDynamicServer(t, Config{DynamicFetcher: sim})
	code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers",
		map[string]any{"name": "inline", "program": v1Wrapper, "html": v1Page, "auxiliary": []string{"page"}})
	if code != 201 {
		t.Fatalf("create: %d %s", code, body)
	}
	code, body, _ = do(t, "POST", ts.URL+"/v1/wrappers/inline/extract",
		map[string]any{"url": "books.example.com/bestsellers.html"})
	if code != 200 {
		t.Fatalf("url extract: %d %s", code, body)
	}
	if !strings.Contains(body, "<book>") {
		t.Fatalf("url extract content: %s", body)
	}
}

func TestV1FirstExtractionFailureRejects(t *testing.T) {
	sim := web.New() // empty web: every fetch fails
	_, ts := newDynamicServer(t, Config{DynamicFetcher: sim})
	code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers",
		map[string]any{"name": "dangling", "program": v1Wrapper})
	if code != 422 || envelope(t, body).Kind != "eval" {
		t.Fatalf("first-tick failure: %d %s", code, body)
	}
	// Nothing was left registered.
	code, _, _ = do(t, "GET", ts.URL+"/v1/wrappers/dangling", nil)
	if code != 404 {
		t.Fatalf("failed wrapper still registered: %d", code)
	}
}

func TestV1LegacyHistoryBadParam(t *testing.T) {
	s := New(Config{})
	if err := s.Register(newFakePipe("x", 0), time.Hour); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, bad := range []string{"0", "-3", "abc", "1.5"} {
		code, body, _ := do(t, "GET", ts.URL+"/x/history?n="+bad, nil)
		if code != 400 || envelope(t, body).Kind != "bad_request" {
			t.Fatalf("n=%s: %d %s", bad, code, body)
		}
	}
}

// TestV1ScheduledWrapperTicks registers a scheduled wrapper against a
// live Run server and watches deliveries accumulate without a restart.
func TestV1ScheduledWrapperTicks(t *testing.T) {
	sim := web.New()
	web.NewBookSite(7, 5).Register(sim, "books.example.com")
	clk := newFakeClock()
	s := New(Config{Addr: "127.0.0.1:0", AllowDynamic: true, DynamicFetcher: sim, Logf: t.Logf, clock: clk})
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx) }()
	<-s.Ready()
	base := "http://" + s.Addr()

	prog := `page(S, X)  <- document("books.example.com/bestsellers.html", S), subelem(S, .body, X)
title(S, X) <- page(_, S), subelem(S, (?.td, [(class, title, exact)]), X)`
	code, body, _ := do(t, "POST", base+"/v1/wrappers",
		map[string]any{"name": "live", "program": prog, "interval_ms": 20})
	if code != 201 {
		t.Fatalf("create scheduled: %d %s", code, body)
	}
	// Registration ticked once; every 20 ms of clock ticks again.
	for n := uint64(2); n <= 3; n++ {
		clk.waitDue(t, 20*time.Millisecond)
		clk.Advance(20 * time.Millisecond)
		waitTicks(t, s, "live", n)
	}
	code, body, _ = do(t, "GET", base+"/v1/wrappers/live", nil)
	if code != 200 {
		t.Fatalf("status: %d %s", code, body)
	}
	var info struct {
		Ticks     uint64 `json:"ticks"`
		Delivered int    `json:"delivered"`
	}
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if info.Ticks != 3 || info.Delivered != 3 {
		t.Fatalf("scheduled wrapper after 3 ticks: %s", body)
	}
	// Parked keep-alive connections would otherwise hold Shutdown until
	// the server's read timeout.
	http.DefaultClient.CloseIdleConnections()
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestV1ConcurrentLifecycle exercises the mutable registry under -race:
// wrappers are registered, extracted from, and deleted over HTTP while
// a static pipeline ticks and the status endpoints are polled; every
// successful extract must be accounted for in the wrapper's collector
// (no lost results), and shutdown must drain cleanly.
func TestV1ConcurrentLifecycle(t *testing.T) {
	sim := web.New()
	web.NewBookSite(7, 5).Register(sim, "books.example.com")
	s := New(Config{
		Addr: "127.0.0.1:0", AllowDynamic: true, DynamicFetcher: sim,
		DefaultInterval: 10 * time.Millisecond, MaxCompilesPerMinute: -1,
	})
	static := newFakePipe("static", time.Millisecond)
	if err := s.Register(static, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx) }()
	<-s.Ready()
	base := "http://" + s.Addr()

	const workers = 4
	const rounds = 3
	const extracts = 5
	var wg sync.WaitGroup
	errs := make(chan error, workers*4)
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				name := fmt.Sprintf("w%d-%d", wi, round)
				scheduled := wi%2 == 0
				spec := map[string]any{"name": name, "program": v1Wrapper, "html": v1Page}
				if scheduled {
					spec["interval_ms"] = 5
				}
				code, body, _ := do(t, "POST", base+"/v1/wrappers", spec)
				if code != 201 {
					errs <- fmt.Errorf("%s create: %d %s", name, code, body)
					return
				}
				for k := 0; k < extracts; k++ {
					code, body, _ := do(t, "POST", base+"/v1/wrappers/"+name+"/extract",
						map[string]any{"html": v1Page})
					if code != 200 {
						errs <- fmt.Errorf("%s extract %d: %d %s", name, k, code, body)
						return
					}
				}
				// No lost results: registration delivered 1, every extract 1,
				// scheduled ticks only add more.
				code, body, _ = do(t, "GET", base+"/v1/wrappers/"+name, nil)
				if code != 200 {
					errs <- fmt.Errorf("%s status: %d %s", name, code, body)
					return
				}
				var info struct {
					Delivered int `json:"delivered"`
				}
				if err := json.Unmarshal([]byte(body), &info); err != nil {
					errs <- err
					return
				}
				if info.Delivered < 1+extracts {
					errs <- fmt.Errorf("%s lost results: delivered %d < %d", name, info.Delivered, 1+extracts)
					return
				}
				if code, body, _ := do(t, "DELETE", base+"/v1/wrappers/"+name, nil); code != 204 {
					errs <- fmt.Errorf("%s delete: %d %s", name, code, body)
					return
				}
			}
		}(wi)
	}
	// Status/listing readers in flight.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			do(t, "GET", base+"/statusz", nil)
			do(t, "GET", base+"/v1/wrappers", nil)
			do(t, "GET", base+"/static", nil)
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Only the static pipeline remains.
	code, body, _ := do(t, "GET", base+"/v1/wrappers", nil)
	if code != 200 || strings.Contains(body, `"w0-`) {
		t.Fatalf("leftover wrappers: %d %s", code, body)
	}
	// Parked keep-alive connections would otherwise hold Shutdown until
	// the server's read timeout.
	http.DefaultClient.CloseIdleConnections()
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestV1BatchedFleet pins the server-side batching wiring: with
// Config.MatchCache set, every dynamically registered wrapper attaches
// to the fleet-shared match cache, the listing reports the cache's
// counters, and each wrapper's extraction block carries the fleet's
// batch size.
func TestV1BatchedFleet(t *testing.T) {
	mc := elog.NewMatchCache()
	// The empty web 404s every fetch: fleet wrappers carry inline pages,
	// so only the deliberately broken registration below hits it.
	_, ts := newDynamicServer(t, Config{MatchCache: mc, DynamicFetcher: web.New()})

	const fleet = 3
	for i := 0; i < fleet; i++ {
		code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers",
			map[string]any{"name": fmt.Sprintf("books%d", i), "program": v1Wrapper,
				"html": v1Page, "auxiliary": []string{"page"}})
		if code != 201 {
			t.Fatalf("create %d: %d %s", i, code, body)
		}
	}
	if got := mc.Attached(); got != fleet {
		t.Fatalf("attached = %d, want %d", got, fleet)
	}
	if hits, _ := mc.Stats(); hits == 0 {
		t.Fatal("fleet wrappers over the same page never hit the shared match cache")
	}

	code, body, _ := do(t, "GET", ts.URL+"/v1/wrappers", nil)
	if code != 200 {
		t.Fatalf("list: %d %s", code, body)
	}
	var listing struct {
		MatchCache *elog.BatchStats `json:"match_cache"`
		Wrappers   []struct {
			Extraction *transform.ExtractionStats `json:"extraction"`
		} `json:"wrappers"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	if listing.MatchCache == nil || listing.MatchCache.Attached != fleet || listing.MatchCache.Hits == 0 ||
		listing.MatchCache.Entries == 0 || listing.MatchCache.Bytes < 64*listing.MatchCache.Entries {
		t.Fatalf("listing match_cache = %+v", listing.MatchCache)
	}
	for _, field := range []string{`"evictions"`, `"bytes"`, `"subtree_hits"`, `"reused_nodes"`, `"instances_grafted"`, `"eval_fallbacks"`, `"base_instances"`, `"base_bytes"`} {
		if !strings.Contains(body, field) {
			t.Errorf("listing lacks %s:\n%s", field, body)
		}
	}
	for i, w := range listing.Wrappers {
		if w.Extraction == nil || w.Extraction.BatchSize != fleet {
			t.Fatalf("wrapper %d extraction = %+v, want batch_size %d", i, w.Extraction, fleet)
		}
		if w.Extraction.EvalNS == 0 {
			t.Fatalf("wrapper %d eval_ns = 0 after registration tick", i)
		}
	}

	// The same counters appear on /statusz.
	code, body, _ = do(t, "GET", ts.URL+"/statusz", nil)
	if code != 200 || !strings.Contains(body, `"match_cache"`) || !strings.Contains(body, `"batch_size"`) || !strings.Contains(body, `"base_bytes"`) ||
		!strings.Contains(body, `"instances_grafted"`) || !strings.Contains(body, `"eval_fallbacks"`) {
		t.Fatalf("statusz lacks match cache or instance base stats: %d\n%s", code, body)
	}

	// Deleting a wrapper detaches it: batch_size must not keep counting
	// retired fleet members.
	code, body, _ = do(t, "DELETE", ts.URL+"/v1/wrappers/books0", nil)
	if code != 204 {
		t.Fatalf("delete: %d %s", code, body)
	}
	if got := mc.Attached(); got != fleet-1 {
		t.Fatalf("attached after delete = %d, want %d", got, fleet-1)
	}

	// A wrapper rejected on its first extraction must not stay attached.
	code, body, _ = do(t, "POST", ts.URL+"/v1/wrappers",
		map[string]any{"name": "broken", "program": v1Wrapper, "interval_ms": 1000})
	if code != 422 {
		t.Fatalf("broken create: %d %s", code, body)
	}
	if got := mc.Attached(); got != fleet-1 {
		t.Fatalf("attached after rejected registration = %d, want %d", got, fleet-1)
	}
}
