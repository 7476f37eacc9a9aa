package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/fetchcache"
	"repro/internal/web"
)

// TestV1PatchReschedulesWrapper covers the PATCH /v1/wrappers/{name}
// satellite end to end: an on-demand wrapper is switched onto a fast
// schedule in the live heap (no restart), slowed back to on-demand,
// and the error paths return the uniform envelope.
func TestV1PatchReschedulesWrapper(t *testing.T) {
	sim := web.New()
	web.NewBookSite(7, 5).Register(sim, "books.example.com")
	cache := fetchcache.New(64, time.Second)
	clk := newFakeClock()
	s := New(Config{
		Addr: "127.0.0.1:0", AllowDynamic: true, DynamicFetcher: sim,
		SharedCache: cache, MaxCompilesPerMinute: -1, clock: clk,
	})
	static := newFakePipe("static", 0)
	if err := s.Register(static, time.Hour); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx) }()
	<-s.Ready()
	base := "http://" + s.Addr()

	prog := `page(S, X)  <- document("books.example.com/bestsellers.html", S), subelem(S, .body, X)
title(S, X) <- page(_, S), subelem(S, (?.td, [(class, title, exact)]), X)`
	code, body, _ := do(t, "POST", base+"/v1/wrappers",
		map[string]any{"name": "patchme", "program": prog}) // interval_ms absent: on-demand
	if code != 201 {
		t.Fatalf("create: %d %s", code, body)
	}

	// PATCH onto a fast schedule; the response is the updated info.
	code, body, _ = do(t, "PATCH", base+"/v1/wrappers/patchme", map[string]any{"interval_ms": 5})
	if code != 200 {
		t.Fatalf("patch: %d %s", code, body)
	}
	var info struct {
		IntervalMS int64  `json:"interval_ms"`
		OnDemand   bool   `json:"on_demand"`
		Ticks      uint64 `json:"ticks"`
	}
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if info.IntervalMS != 5 || info.OnDemand {
		t.Fatalf("patched info: %s", body)
	}
	// Each 5 ms of clock is one tick (the first was registration's).
	for n := uint64(2); n <= 3; n++ {
		clk.waitDue(t, 5*time.Millisecond)
		clk.Advance(5 * time.Millisecond)
		waitTicks(t, s, "patchme", n)
	}
	_, body, _ = do(t, "GET", base+"/v1/wrappers/patchme", nil)
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if info.Ticks != 3 {
		t.Fatalf("patched wrapper info after 3 ticks: %s", body)
	}

	// Back to on-demand: ticking stops.
	if code, body, _ = do(t, "PATCH", base+"/v1/wrappers/patchme", map[string]any{"interval_ms": 0}); code != 200 {
		t.Fatalf("patch to on-demand: %d %s", code, body)
	}
	_, body, _ = do(t, "GET", base+"/v1/wrappers/patchme", nil)
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if !info.OnDemand {
		t.Fatalf("wrapper still scheduled after PATCH 0: %s", body)
	}
	ticksAfter := info.Ticks
	clk.Advance(time.Hour) // fires the static pipe's tick, and nothing of patchme's
	_, body, _ = do(t, "GET", base+"/v1/wrappers/patchme", nil)
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if info.Ticks != ticksAfter {
		t.Fatalf("on-demand wrapper kept ticking (%d -> %d)", ticksAfter, info.Ticks)
	}

	// Error paths, all in the uniform envelope.
	for _, tc := range []struct {
		name string
		url  string
		body map[string]any
		code int
		kind string
	}{
		{"missing field", "/v1/wrappers/patchme", map[string]any{}, 400, "bad_request"},
		{"negative", "/v1/wrappers/patchme", map[string]any{"interval_ms": -1}, 400, "bad_request"},
		{"overflow", "/v1/wrappers/patchme", map[string]any{"interval_ms": int64(1) << 40}, 400, "bad_request"},
		{"unknown", "/v1/wrappers/nosuch", map[string]any{"interval_ms": 5}, 404, "not_found"},
		{"static", "/v1/wrappers/static", map[string]any{"interval_ms": 5}, 403, "forbidden"},
	} {
		code, body, _ := do(t, "PATCH", base+tc.url, tc.body)
		if code != tc.code || envelope(t, body).Kind != tc.kind {
			t.Errorf("%s: %d %s", tc.name, code, body)
		}
	}
	// 405 advertises PATCH.
	code, body, hdr := do(t, "PUT", base+"/v1/wrappers/patchme", map[string]any{})
	if code != 405 || !strings.Contains(hdr.Get("Allow"), "PATCH") {
		t.Fatalf("PUT: %d Allow=%q %s", code, hdr.Get("Allow"), body)
	}

	// GET /v1/wrappers carries the scheduler and shared-cache blocks.
	code, body, _ = do(t, "GET", base+"/v1/wrappers", nil)
	if code != 200 {
		t.Fatalf("list: %d %s", code, body)
	}
	var list struct {
		Wrappers  []wrapperInfo     `json:"wrappers"`
		Scheduler *SchedulerStatus  `json:"scheduler"`
		Cache     *fetchcache.Stats `json:"shared_cache"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if list.Scheduler == nil || list.Cache == nil || len(list.Wrappers) != 2 {
		t.Fatalf("list missing stats blocks:\n%s", body)
	}
	if list.Scheduler.Scheduled == 0 {
		t.Errorf("scheduler reports nothing scheduled (the static pipe is): %s", body)
	}
	// The dynamic wrapper fetched through the shared cache.
	if list.Cache.Misses == 0 {
		t.Errorf("shared cache never consulted: %+v", *list.Cache)
	}

	http.DefaultClient.CloseIdleConnections()
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestV1PatchSurvivesRestart: with a store, a restart restores a
// wrapper at the cadence PATCH gave it, not the one it was registered
// with.
func TestV1PatchSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir)
	_, ts := newDynamicServer(t, Config{ResultStore: store})
	if code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers", map[string]any{
		"name": "p", "program": v1Wrapper, "html": v1Page, "auxiliary": []string{"page"},
	}); code != 201 {
		t.Fatalf("create: %d %s", code, body)
	}
	if code, body, _ := do(t, "PATCH", ts.URL+"/v1/wrappers/p", map[string]any{"interval_ms": 250}); code != 200 {
		t.Fatalf("patch: %d %s", code, body)
	}
	ts.Close()
	store.Close()

	store2 := openStore(t, dir)
	defer store2.Close()
	s2, ts2 := newDynamicServer(t, Config{ResultStore: store2})
	if n, err := s2.Restore(); n != 1 || err != nil {
		t.Fatalf("restore: %d %v", n, err)
	}
	_, body, _ := do(t, "GET", ts2.URL+"/v1/wrappers/p", nil)
	var info struct {
		IntervalMS int64 `json:"interval_ms"`
		OnDemand   bool  `json:"on_demand"`
	}
	if err := json.Unmarshal([]byte(body), &info); err != nil || info.IntervalMS != 250 || info.OnDemand {
		t.Fatalf("restored wrapper: %s", body)
	}
}

// TestRestoredWrapperPatchedOntoSchedule: a restored wrapper PATCHed
// onto a schedule first ticks one interval later, as one registered in
// the running process does — whether it was restored on demand, or
// restored on a schedule and taken off it before the PATCH.
func TestRestoredWrapperPatchedOntoSchedule(t *testing.T) {
	const iv = time.Minute
	dir := t.TempDir()
	start := func() (*Server, *fakeClock, func()) {
		store := openStore(t, dir)
		clk := newFakeClock()
		s := New(Config{Addr: "127.0.0.1:0", AllowDynamic: true, MaxCompilesPerMinute: -1,
			ResultStore: store, clock: clk})
		if _, err := s.Restore(); err != nil {
			t.Fatal(err)
		}
		stop := runServer(t, s)
		return s, clk, func() {
			http.DefaultClient.CloseIdleConnections()
			stop()
			store.Close()
		}
	}
	s, clk, stop := start()
	for name, ms := range map[string]int64{"ondemand": 0, "scheduled": iv.Milliseconds()} {
		if code, body, _ := do(t, "POST", "http://"+s.Addr()+"/v1/wrappers", map[string]any{
			"name": name, "program": v1Wrapper, "html": v1Page, "auxiliary": []string{"page"}, "interval_ms": ms,
		}); code != 201 {
			t.Fatalf("create %s: %d %s", name, code, body)
		}
	}
	stop()

	s, clk, stop = start()
	defer stop()
	base := "http://" + s.Addr()
	patch := func(name string, d time.Duration) {
		t.Helper()
		if code, body, _ := do(t, "PATCH", base+"/v1/wrappers/"+name, map[string]any{"interval_ms": d.Milliseconds()}); code != 200 {
			t.Fatalf("PATCH %s to %v: %d %s", name, d, code, body)
		}
	}
	waitTicks(t, s, "scheduled", 1) // restored on a schedule: ticks when the server starts
	patch("scheduled", 0)
	patch("scheduled", iv)
	patch("ondemand", iv)
	// The next deadline and the tick count, read together once no tick
	// is queued or running.
	due := func(name string) (time.Time, uint64) {
		s.mu.Lock()
		ps := s.pipes[name]
		e := ps.entry
		s.mu.Unlock()
		e.sh.mu.Lock()
		defer e.sh.mu.Unlock()
		for e.state != entryIdle {
			e.sh.cond.Wait()
		}
		ps.mu.Lock()
		defer ps.mu.Unlock()
		return e.when, ps.ticks
	}
	for name, ticks := range map[string]uint64{"ondemand": 0, "scheduled": 1} {
		if when, n := due(name); n != ticks || !when.Equal(clk.Now().Add(iv)) {
			t.Errorf("%s after the PATCH: %d ticks, next due %v from now; want %d ticks, next due %v from now",
				name, n, when.Sub(clk.Now()), ticks, iv)
		}
	}
	clk.Advance(iv)
	waitTicks(t, s, "ondemand", 1)
	waitTicks(t, s, "scheduled", 2)
}
