package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/resultlog"
	"repro/internal/xmlenc"
)

// openStore opens a result store rooted at dir with test-friendly
// options (no background fsync batching to wait out).
func openStore(t *testing.T, dir string) *resultlog.Store {
	t.Helper()
	store, err := resultlog.Open(dir, resultlog.Options{Fsync: resultlog.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestRestoreByteIdentity is the core recovery contract in-process: a
// second server rehydrated from the first one's result store serves the
// latest result, its ETag, the conditional-GET behavior, and the
// history byte-identically.
func TestRestoreByteIdentity(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir)

	s1 := New(Config{ResultStore: store})
	p1 := newFakePipe("x", 0)
	if err := s1.Register(p1, time.Hour); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		deliver(t, s1, p1)
	}
	ts1 := httptest.NewServer(s1.Handler())
	_, latest1, hdr1 := do(t, "GET", ts1.URL+"/x", nil)
	_, hist1, _ := do(t, "GET", ts1.URL+"/x/history?since=0", nil)
	_, json1, _ := do(t, "GET", ts1.URL+"/x", nil, "Accept", "application/json")
	ts1.Close()
	etag1 := hdr1.Get("ETag")
	if etag1 == "" || hdr1.Get("Lixto-Version") != "5" {
		t.Fatalf("first server headers: ETag=%q Lixto-Version=%q", etag1, hdr1.Get("Lixto-Version"))
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh store over the same directory, a fresh server,
	// a fresh pipeline that has never ticked.
	store2 := openStore(t, dir)
	defer store2.Close()
	s2 := New(Config{ResultStore: store2})
	p2 := newFakePipe("x", 0)
	if err := s2.Register(p2, time.Hour); err != nil {
		t.Fatal(err)
	}
	n, err := s2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d wrappers, want 1", n)
	}
	if got := s2.readPipe("x").deliver.head(); got != 5 {
		t.Fatalf("restored collector version = %d, want 5", got)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	code, latest2, hdr2 := do(t, "GET", ts2.URL+"/x", nil)
	if code != 200 || latest2 != latest1 {
		t.Fatalf("latest diverged across restart:\n--- before ---\n%s\n--- after ---\n%s", latest1, latest2)
	}
	if hdr2.Get("ETag") != etag1 {
		t.Fatalf("ETag changed across restart: %q -> %q", etag1, hdr2.Get("ETag"))
	}
	if hdr2.Get("Lixto-Version") != "5" {
		t.Fatalf("Lixto-Version after restore = %q, want 5", hdr2.Get("Lixto-Version"))
	}
	// The pre-crash ETag still answers 304 — caches survive the restart.
	if code, _, _ := do(t, "GET", ts2.URL+"/x", nil, "If-None-Match", etag1); code != 304 {
		t.Fatalf("conditional GET with pre-crash ETag = %d, want 304", code)
	}
	if _, hist2, _ := do(t, "GET", ts2.URL+"/x/history?since=0", nil); hist2 != hist1 {
		t.Fatalf("history diverged across restart:\n--- before ---\n%s\n--- after ---\n%s", hist1, hist2)
	}
	if _, json2, _ := do(t, "GET", ts2.URL+"/x", nil, "Accept", "application/json"); json2 != json1 {
		t.Fatalf("JSON rendering diverged across restart")
	}

	// Live deliveries continue the version sequence from the log.
	deliver(t, s2, p2)
	if got := s2.readPipe("x").deliver.head(); got != 6 {
		t.Fatalf("post-restore delivery version = %d, want 6", got)
	}
	if _, _, hdr := do(t, "GET", ts2.URL+"/x", nil); hdr.Get("Lixto-Version") != "6" {
		t.Fatalf("Lixto-Version after new delivery = %q, want 6", hdr.Get("Lixto-Version"))
	}
}

// TestRestoreNoopRuns pins the no-op record semantics: suppressed
// re-deliveries of unchanged content land in the log as version-only
// records and rehydrate as repeated ring entries, exactly as the live
// suppressed tick left them.
func TestRestoreNoopRuns(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir)
	s1 := New(Config{ResultStore: store})
	p1 := newFakePipe("x", 0)
	if err := s1.Register(p1, time.Hour); err != nil {
		t.Fatal(err)
	}
	deliver(t, s1, p1)
	// Re-deliver the same document pointer twice: versions 2 and 3 are
	// suppressed no-ops.
	doc := p1.out.Latest()
	for i := 0; i < 2; i++ {
		if _, err := p1.out.Process("", doc); err != nil {
			t.Fatal(err)
		}
	}
	deliver(t, s1, p1) // version 4: real change

	ts1 := httptest.NewServer(s1.Handler())
	_, hist1, _ := do(t, "GET", ts1.URL+"/x/history?since=0", nil)
	ts1.Close()
	store.Close()

	st := store.Stats()
	if st.NoopAppends != 2 {
		t.Fatalf("noop appends = %d, want 2 (stats %+v)", st.NoopAppends, st)
	}

	store2 := openStore(t, dir)
	defer store2.Close()
	s2 := New(Config{ResultStore: store2})
	p2 := newFakePipe("x", 0)
	if err := s2.Register(p2, time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Restore(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	_, hist2, _ := do(t, "GET", ts2.URL+"/x/history?since=0", nil)
	if hist2 != hist1 {
		t.Fatalf("noop-run history diverged:\n--- before ---\n%s\n--- after ---\n%s", hist1, hist2)
	}
	if !strings.Contains(hist2, `count="4"`) {
		t.Fatalf("restored history should hold 4 versions: %s", hist2)
	}
}

// TestRestoreDynamicWrapper: a wrapper registered through /v1 at
// runtime is recompiled from its persisted spec on restart and serves
// its last results without a validation tick.
func TestRestoreDynamicWrapper(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir)
	_, ts1 := newDynamicServer(t, Config{ResultStore: store})
	code, body, _ := do(t, "POST", ts1.URL+"/v1/wrappers",
		map[string]any{"name": "books", "program": v1Wrapper, "html": v1Page, "auxiliary": []string{"page"}})
	if code != 201 {
		t.Fatalf("create: %d %s", code, body)
	}
	page2 := strings.ReplaceAll(v1Page, "Foundations of Databases", "Principles of Database Systems")
	code, _, hdr := do(t, "POST", ts1.URL+"/v1/wrappers/books/extract", map[string]any{"html": page2})
	if code != 200 || hdr.Get("Lixto-Version") != "2" {
		t.Fatalf("extract: %d Lixto-Version=%q", code, hdr.Get("Lixto-Version"))
	}
	_, want, _ := do(t, "GET", ts1.URL+"/v1/wrappers/books/results", nil)
	store.Close()

	store2 := openStore(t, dir)
	defer store2.Close()
	s2, ts2 := newDynamicServer(t, Config{ResultStore: store2})
	n, err := s2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d wrappers, want 1", n)
	}
	code, body, _ = do(t, "GET", ts2.URL+"/v1/wrappers/books", nil)
	if code != 200 || !strings.Contains(body, `"dynamic": true`) {
		t.Fatalf("restored wrapper status: %d %s", code, body)
	}
	code, got, _ := do(t, "GET", ts2.URL+"/v1/wrappers/books/results", nil)
	if code != 200 || got != want {
		t.Fatalf("restored results diverged:\n--- before ---\n%s\n--- after ---\n%s", want, got)
	}
	// The restored wrapper still extracts: the spec round-tripped whole.
	code, body, _ = do(t, "POST", ts2.URL+"/v1/wrappers/books/extract", map[string]any{"html": v1Page})
	if code != 200 || !strings.Contains(body, "Foundations of Databases") {
		t.Fatalf("extract after restore: %d %s", code, body)
	}
}

// TestRestoreSkipsUnknownState: log directories for names no longer
// registered (and lacking a dynamic spec) are left alone, and a
// registered pipeline with an empty log stays empty.
func TestRestoreSkipsUnknownState(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir)
	defer store.Close()
	// Seed state for "gone" with no spec sidecar — as a static pipeline
	// from a previous configuration would leave behind.
	l, err := store.Log("gone")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(resultlog.Record{Kind: resultlog.KindSnapshot, Version: 1, XML: []byte("<doc/>")}); err != nil {
		t.Fatal(err)
	}

	s := New(Config{ResultStore: store})
	p := newFakePipe("fresh", 0)
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	n, err := s.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d, want 1 (the registered-but-empty pipeline)", n)
	}
	if v := s.readPipe("fresh").deliver.head(); v != 0 {
		t.Fatalf("empty log rehydrated versions: %d", v)
	}
	if s.pipe("gone") != nil {
		t.Fatal("unregistered state resurrected a pipeline")
	}
}

// TestHistorySinceCursor pins the ?since= cursor mode on the legacy
// history route and the /v1 results route — including that it works
// purely in-memory, with no result store configured.
func TestHistorySinceCursor(t *testing.T) {
	s := New(Config{})
	p := newFakePipe("x", 0)
	p.out.Retain = 10
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		deliver(t, s, p)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, route := range []string{"/x/history", "/v1/wrappers/x/results"} {
		root := "history"
		if strings.Contains(route, "/v1/") {
			root = "results"
		}
		code, body, hdr := do(t, "GET", ts.URL+route+"?since=2", nil)
		if code != 200 {
			t.Fatalf("%s?since=2: %d %s", route, code, body)
		}
		if hdr.Get("Lixto-Version") != "5" {
			t.Fatalf("%s cursor header = %q, want 5", route, hdr.Get("Lixto-Version"))
		}
		if !strings.Contains(body, "<"+root+` name="x" count="3" since="2">`) {
			t.Fatalf("%s root shape: %s", route, body)
		}
		// Oldest first, version-stamped, strictly after the cursor.
		i3 := strings.Index(body, `<result version="3">`)
		i4 := strings.Index(body, `<result version="4">`)
		i5 := strings.Index(body, `<result version="5">`)
		if i3 < 0 || i4 < i3 || i5 < i4 {
			t.Fatalf("%s order: %s", route, body)
		}
		if strings.Contains(body, `version="2"`) {
			t.Fatalf("%s included the cursor version itself: %s", route, body)
		}

		// ?n pages the cursor scan, keeping the oldest entries so the
		// client advances by re-requesting.
		code, body, _ = do(t, "GET", ts.URL+route+"?since=0&n=2", nil)
		if code != 200 || !strings.Contains(body, `version="1"`) || !strings.Contains(body, `version="2"`) ||
			strings.Contains(body, `version="3"`) {
			t.Fatalf("%s?since=0&n=2: %d %s", route, code, body)
		}

		// A cursor at (or past) the head returns an empty page.
		code, body, _ = do(t, "GET", ts.URL+route+"?since=5", nil)
		if code != 200 || !strings.Contains(body, `count="0"`) {
			t.Fatalf("%s?since=5: %d %s", route, code, body)
		}

		// JSON mode renders the same version-stamped list.
		code, body, _ = do(t, "GET", ts.URL+route+"?since=3", nil, "Accept", "application/json")
		if code != 200 || !json.Valid([]byte(body)) {
			t.Fatalf("%s JSON since: %d %s", route, code, body)
		}
		if !strings.Contains(body, `"version"`) || strings.Count(body, `"result"`) != 2 {
			t.Fatalf("%s JSON shape: %s", route, body)
		}

		// Malformed cursor: uniform 400 envelope.
		code, body, _ = do(t, "GET", ts.URL+route+"?since=abc", nil)
		if code != 400 || envelope(t, body).Kind != "bad_request" {
			t.Fatalf("%s?since=abc: %d %s", route, code, body)
		}
	}

	t.Run("wrapped", historySinceWrapped)
}

// wrappedFeed registers the dynamic fake pipe "feed" (its registration
// delivers version 1) and delivers 80 more results, versions 2..81 —
// far past a Retain-sized ring.
func wrappedFeed(t *testing.T, cfg Config, retain int) *httptest.Server {
	t.Helper()
	s := New(cfg)
	p := newFakePipe("feed", 0)
	p.out.Retain = retain
	if err := registerDynamic(s, p, 0, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		deliver(t, s, p)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// resultVersions returns the version attributes of a ?since= list, in
// document order.
func resultVersions(t *testing.T, body string) []uint64 {
	t.Helper()
	var out []uint64
	for _, part := range strings.Split(body, `<result version="`)[1:] {
		v, err := strconv.ParseUint(part[:strings.IndexByte(part, '"')], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	return out
}

// historySinceWrapped: with a result store a cursor far behind the
// in-memory retention reads every version from the log, with no gap
// signal; without one, a cursor behind the ring gets the Lixto-Gap
// header carrying the oldest retained version, in XML and JSON.
func historySinceWrapped(t *testing.T) {
	store := openStore(t, t.TempDir())
	defer store.Close()
	durable := wrappedFeed(t, Config{ResultStore: store}, 4)
	for _, route := range []string{"/feed/history", "/v1/wrappers/feed/results"} {
		code, body, hdr := do(t, "GET", durable.URL+route+"?since=1", nil)
		if code != 200 || hdr.Get("Lixto-Gap") != "" || !strings.Contains(body, `count="80" since="1"`) {
			t.Fatalf("%s?since=1 with a store: %d Lixto-Gap=%q %.200s", route, code, hdr.Get("Lixto-Gap"), body)
		}
		vers := resultVersions(t, body)
		for i, v := range vers {
			if v != uint64(i+2) {
				t.Fatalf("%s?since=1 with a store: versions %v, want 2..81", route, vers)
			}
		}
	}

	ring := wrappedFeed(t, Config{}, 4)
	for _, route := range []string{"/feed/history", "/v1/wrappers/feed/results"} {
		code, body, hdr := do(t, "GET", ring.URL+route+"?since=1", nil)
		if code != 200 || hdr.Get("Lixto-Gap") != "78" {
			t.Fatalf("%s?since=1 behind the ring: %d Lixto-Gap=%q", route, code, hdr.Get("Lixto-Gap"))
		}
		if vers := resultVersions(t, body); len(vers) != 4 || vers[0] != 78 || vers[3] != 81 {
			t.Fatalf("%s?since=1 behind the ring: versions %v, want 78..81", route, vers)
		}
		code, _, hdr = do(t, "GET", ring.URL+route+"?since=1", nil, "Accept", "application/json")
		if code != 200 || hdr.Get("Lixto-Gap") != "78" {
			t.Fatalf("%s?since=1 JSON behind the ring: %d Lixto-Gap=%q", route, code, hdr.Get("Lixto-Gap"))
		}
		// A cursor inside the ring is no gap.
		if _, _, hdr = do(t, "GET", ring.URL+route+"?since=77", nil); hdr.Get("Lixto-Gap") != "" {
			t.Fatalf("%s?since=77: Lixto-Gap=%q inside the ring", route, hdr.Get("Lixto-Gap"))
		}
	}
}

// TestWatchReplaySince pins SSE resume: a subscriber presenting its
// last seen delivery version — via Last-Event-ID or ?since= — gets the
// missed snapshots replayed in order, each with its own id, before the
// stream goes live. Duplicated ring entries (suppressed no-op ticks)
// advance the cursor without re-sending.
func TestWatchReplaySince(t *testing.T) {
	s := New(Config{})
	p := newFakePipe("feed", 0)
	if err := registerDynamic(s, p, 0, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // versions 2..4 (registration delivered 1)
		deliver(t, s, p)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close) // after the SSE clients close (cleanups run LIFO)

	c := openWatch(t, ts.URL+"/v1/wrappers/feed/watch", "Last-Event-ID", "2")
	for _, want := range []uint64{3, 4} {
		ev := c.next(t, 2*time.Second)
		if ev.event != "result" || ev.id != want {
			t.Fatalf("replay event: %q id=%d, want result id=%d", ev.event, ev.id, want)
		}
	}
	// After the replay the stream is live: the next delivery arrives once.
	deliver(t, s, p)
	if ev := c.next(t, 2*time.Second); ev.id != 5 {
		t.Fatalf("live event after replay: id=%d, want 5", ev.id)
	}
	c.none(t, 100*time.Millisecond)

	// ?since= is the header-less spelling of the same cursor.
	c2 := openWatch(t, ts.URL+"/v1/wrappers/feed/watch?since=4")
	if ev := c2.next(t, 2*time.Second); ev.id != 5 {
		t.Fatalf("?since=4 replay: id=%d, want 5", ev.id)
	}

	// A no-op re-delivery duplicates the ring tail; replay must advance
	// past it without re-sending the unchanged document.
	doc := p.out.Latest()
	if _, err := p.out.Process("", doc); err != nil { // version 6, suppressed
		t.Fatal(err)
	}
	c3 := openWatch(t, ts.URL+"/v1/wrappers/feed/watch", "Last-Event-ID", "4")
	if ev := c3.next(t, 2*time.Second); ev.id != 5 {
		t.Fatalf("replay over noop: first id=%d, want 5", ev.id)
	}
	c3.none(t, 100*time.Millisecond)
	// The cursor advanced past the no-op: the next change is id 7.
	deliver(t, s, p)
	if ev := c3.next(t, 2*time.Second); ev.id != 7 {
		t.Fatalf("live after noop replay: id=%d, want 7", ev.id)
	}

	// A cursor at the head replays nothing and waits silently.
	c4 := openWatch(t, ts.URL+"/v1/wrappers/feed/watch", "Last-Event-ID", "7")
	c4.none(t, 100*time.Millisecond)

	t.Run("wrapped", watchReplayWrapped)
}

// watchReplayWrapped: with a result store, a subscriber resuming far
// behind the in-memory retention replays every missed version from the
// log; without one, a cursor behind the ring gets an "event: gap" frame
// carrying the oldest retained version (and no id) before the replay.
func watchReplayWrapped(t *testing.T) {
	store := openStore(t, t.TempDir())
	defer store.Close()
	durable := wrappedFeed(t, Config{ResultStore: store}, 4)
	c := openWatch(t, durable.URL+"/v1/wrappers/feed/watch", "Last-Event-ID", "1")
	for want := uint64(2); want <= 81; want++ {
		if ev := c.next(t, 2*time.Second); ev.event != "result" || ev.id != want {
			t.Fatalf("replay from the log: %q id=%d, want result id=%d", ev.event, ev.id, want)
		}
	}
	c.none(t, 100*time.Millisecond)

	ring := wrappedFeed(t, Config{}, 4)
	req, err := http.NewRequest("GET", ring.URL+"/v1/wrappers/feed/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	want := "event: gap\ndata: 78\n\nevent: result\nid: 78\n"
	got := make([]byte, len(want))
	if _, err := io.ReadFull(resp.Body, got); err != nil || string(got) != want {
		t.Fatalf("replay behind the ring starts %q (%v), want %q", got, err, want)
	}
	c2 := openWatch(t, ring.URL+"/v1/wrappers/feed/watch?since=1")
	if ev := c2.next(t, 2*time.Second); ev.event != "gap" || ev.id != 0 || ev.data != "78" {
		t.Fatalf("gap event: %+v", ev)
	}
	for want := uint64(78); want <= 81; want++ {
		if ev := c2.next(t, 2*time.Second); ev.event != "result" || ev.id != want {
			t.Fatalf("replay after the gap: %q id=%d, want result id=%d", ev.event, ev.id, want)
		}
	}
}

// TestSinceNoopContent: a cursor read from the result log renders a
// no-op version with the content it repeats, whether that snapshot
// lies inside the read or before the cursor, and whether or not it is
// still the current one.
func TestSinceNoopContent(t *testing.T) {
	store := openStore(t, t.TempDir())
	defer store.Close()
	s := New(Config{ResultStore: store})
	p := newFakePipe("x", 0)
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	noop := func() {
		if _, err := p.out.Process("", p.out.Latest()); err != nil {
			t.Fatal(err)
		}
	}
	deliver(t, s, p) // 1: n="1"
	noop()           // 2
	deliver(t, s, p) // 3: n="2"
	noop()           // 4
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for since, want := range map[string][]string{
		"0": {`<result version="1">
    <doc n="1"/>`, `<result version="2">
    <doc n="1"/>`, `<result version="3">
    <doc n="2"/>`, `<result version="4">
    <doc n="2"/>`},
		"1": {`<result version="2">
    <doc n="1"/>`, `<result version="4">
    <doc n="2"/>`},
		"3": {`<result version="4">
    <doc n="2"/>`},
	} {
		code, body, hdr := do(t, "GET", ts.URL+"/x/history?since="+since, nil)
		if code != 200 || hdr.Get("Lixto-Gap") != "" {
			t.Fatalf("?since=%s: %d Lixto-Gap=%q", since, code, hdr.Get("Lixto-Gap"))
		}
		for _, w := range want {
			if !strings.Contains(body, w) {
				t.Fatalf("?since=%s lacks %q:\n%s", since, w, body)
			}
		}
	}
}

// TestStatuszPersistenceShape pins the "persistence" stats block: keyed
// fields appear on /statusz and GET /v1/wrappers when a result store is
// configured, and are absent when it is not.
func TestStatuszPersistenceShape(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir)
	defer store.Close()
	s := New(Config{ResultStore: store, AllowDynamic: true})
	p := newFakePipe("x", 0)
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	deliver(t, s, p)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, url := range []string{ts.URL + "/statusz", ts.URL + "/v1/wrappers"} {
		code, body, _ := do(t, "GET", url, nil)
		if code != 200 {
			t.Fatalf("%s = %d", url, code)
		}
		for _, key := range []string{`"persistence"`, `"wrappers"`, `"segments"`, `"appends"`,
			`"noop_appends"`, `"bytes_appended"`, `"fsyncs"`, `"batched_syncs"`, `"rotations"`,
			`"truncated_segments"`, `"replayed_records"`, `"torn_records"`, `"append_errors"`} {
			if !strings.Contains(body, key) {
				t.Errorf("%s missing %s", url, key)
			}
		}
		if !strings.Contains(body, `"appends": 1`) {
			t.Errorf("%s does not count the logged delivery:\n%s", url, body)
		}
	}

	// Without a store the block stays out of the report entirely.
	bare := New(Config{})
	if err := bare.Register(newFakePipe("y", 0), time.Hour); err != nil {
		t.Fatal(err)
	}
	tsBare := httptest.NewServer(bare.Handler())
	defer tsBare.Close()
	if _, body, _ := do(t, "GET", tsBare.URL+"/statusz", nil); strings.Contains(body, `"persistence"`) {
		t.Fatalf("statusz reports persistence without a store:\n%s", body)
	}
}

// docPipe delivers whatever document doc holds at the next Tick:
// tests swap it to publish changes, or leave it to re-deliver the same
// document (a suppressed no-op).
type docPipe struct {
	*fakePipe
	doc *xmlenc.Node
}

func (p *docPipe) Tick() error {
	_, err := p.out.Process("", p.doc)
	return err
}

// crDoc holds carriage returns in text and in an attribute value.
func crDoc(n int) *xmlenc.Node {
	doc := xmlenc.NewElement("doc").SetAttr("n", strconv.Itoa(n)).SetAttr("a", "p\rq")
	doc.AppendTextElement("t", "x\ry\r\nz")
	doc.AppendTextElement("u", "line one\rline two\r")
	return doc
}

// eventSourceData reads one SSE stream by the EventSource rules — a
// line ends at CRLF, LF or a lone CR; "data:" lines join with LF; a
// blank line dispatches — and returns the data of the next event of
// the given type.
func eventSourceData(t *testing.T, br *bufio.Reader, event string) string {
	t.Helper()
	var typ string
	var data []string
	for {
		var line []byte
		for {
			c, err := br.ReadByte()
			if err != nil {
				t.Fatalf("SSE stream ended: %v", err)
			}
			if c == '\n' {
				break
			}
			if c == '\r' {
				if next, err := br.Peek(1); err == nil && next[0] == '\n' {
					br.ReadByte()
				}
				break
			}
			line = append(line, c)
		}
		field, value, _ := strings.Cut(string(line), ":")
		value = strings.TrimPrefix(value, " ")
		switch {
		case len(line) == 0:
			if typ == event {
				return strings.Join(data, "\n")
			}
			typ, data = "", nil
		case field == "event":
			typ = value
		case field == "data":
			data = append(data, value)
		}
	}
}

// openStream starts a watch request and returns its body reader and
// the function that ends it.
func openStream(t *testing.T, url string, header ...string) (*bufio.Reader, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
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
	stop := func() {
		cancel()
		resp.Body.Close()
	}
	t.Cleanup(stop)
	if resp.StatusCode != 200 {
		t.Fatalf("watch: %d", resp.StatusCode)
	}
	return bufio.NewReader(resp.Body), stop
}

// A carriage return in delivered content survives both a restart and
// SSE framing: the restored snapshot's JSON (and so its ETag) is the
// one served before the restart, JSON replay frames carry the live
// JSON, and an XML frame read by EventSource rules is the GET body.
func TestCarriageReturnRestartAndSSE(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir)
	s1 := New(Config{ResultStore: store})
	p1 := &docPipe{fakePipe: newFakePipe("cr", 0), doc: crDoc(1)}
	if err := s1.Register(p1, time.Hour); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	deliver(t, s1, p1.fakePipe)
	if err := p1.Tick(); err != nil {
		t.Fatal(err)
	}
	watch, stop := openStream(t, ts1.URL+"/v1/wrappers/cr/watch")
	_, xml1, _ := do(t, "GET", ts1.URL+"/cr", nil)
	if got := eventSourceData(t, watch, "result") + "\n"; got != xml1 {
		t.Errorf("first XML frame by EventSource rules:\n got %q\nwant %q", got, xml1)
	}
	p1.doc = crDoc(2)
	if err := p1.Tick(); err != nil {
		t.Fatal(err)
	}
	_, xml2, _ := do(t, "GET", ts1.URL+"/cr", nil)
	if got := eventSourceData(t, watch, "result") + "\n"; got != xml2 {
		t.Errorf("broadcast XML frame by EventSource rules:\n got %q\nwant %q", got, xml2)
	}
	_, json1, hdr1 := do(t, "GET", ts1.URL+"/cr", nil, "Accept", "application/json")
	stop()
	ts1.Close()
	store.Close()

	store2 := openStore(t, dir)
	defer store2.Close()
	s2 := New(Config{ResultStore: store2})
	if err := s2.Register(&docPipe{fakePipe: newFakePipe("cr", 0), doc: crDoc(3)}, time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Restore(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	_, json2, hdr2 := do(t, "GET", ts2.URL+"/cr", nil, "Accept", "application/json")
	if hdr2.Get("ETag") != hdr1.Get("ETag") || json2 != json1 {
		t.Errorf("JSON changed across restart: ETag %s -> %s\n%s\n%s", hdr1.Get("ETag"), hdr2.Get("ETag"), json1, json2)
	}
	replay, stop := openStream(t, ts2.URL+"/v1/wrappers/cr/watch?since=2", "Accept", "application/json")
	defer stop()
	if got := eventSourceData(t, replay, "result"); got != strings.TrimRight(json1, "\n") {
		t.Fatalf("JSON replay frame differs from the live JSON:\n got %q\nwant %q", got, json1)
	}
}
