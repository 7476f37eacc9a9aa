package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// jsonUnmarshal decodes a response body string.
func jsonUnmarshal(s string, v any) error { return json.Unmarshal([]byte(s), v) }

// hookSink is an in-test webhook receiver: it records every POST (or
// rejects it, while failing is set) so tests can assert ordering,
// headers, and at-least-once coverage. While stalled, a POST is held
// open until the stall ends or its client goes away, then rejected
// unrecorded.
type hookSink struct {
	mu       sync.Mutex
	failing  bool
	failCode int
	stall    chan struct{} // non-nil while stalled; closed to end it
	stalls   int           // POSTs held by a stall
	receipts []hookReceipt
	changed  chan struct{} // closed and replaced on every receipt or stall
	ts       *httptest.Server
}

type hookReceipt struct {
	path    string
	wrapper string
	webhook string
	version uint64
	body    string
	sig     string
	gap     string
	remote  string // the sending connection's address
}

func newHookSink(t *testing.T) *hookSink {
	t.Helper()
	sink := &hookSink{failCode: http.StatusServiceUnavailable, changed: make(chan struct{})}
	sink.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		v, _ := strconv.ParseUint(r.Header.Get("Lixto-Version"), 10, 64)
		sink.mu.Lock()
		defer sink.mu.Unlock()
		if stall := sink.stall; stall != nil {
			sink.stalls++
			sink.signalLocked()
			sink.mu.Unlock()
			select {
			case <-stall:
			case <-r.Context().Done():
			}
			sink.mu.Lock()
			w.WriteHeader(sink.failCode)
			return
		}
		if sink.failing {
			w.WriteHeader(sink.failCode)
			return
		}
		sink.receipts = append(sink.receipts, hookReceipt{
			path:    r.URL.Path,
			wrapper: r.Header.Get("Lixto-Wrapper"),
			webhook: r.Header.Get("Lixto-Webhook"),
			version: v,
			body:    string(body),
			sig:     r.Header.Get("Lixto-Signature"),
			gap:     r.Header.Get("Lixto-Gap"),
			remote:  r.RemoteAddr,
		})
		sink.signalLocked()
	}))
	t.Cleanup(sink.ts.Close)
	t.Cleanup(func() { sink.setStalled(false) }) // before the server closes
	return sink
}

func (h *hookSink) signalLocked() {
	close(h.changed)
	h.changed = make(chan struct{})
}

func (h *hookSink) setFailing(on bool) {
	h.mu.Lock()
	h.failing = on
	h.mu.Unlock()
}

func (h *hookSink) setStalled(on bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case on && h.stall == nil:
		h.stall = make(chan struct{})
	case !on && h.stall != nil:
		close(h.stall)
		h.stall = nil
	}
}

func (h *hookSink) snapshot() []hookReceipt {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]hookReceipt(nil), h.receipts...)
}

// waitFor waits until the sink's receipts satisfy ok.
func (h *hookSink) waitFor(t *testing.T, what string, ok func([]hookReceipt) bool) []hookReceipt {
	t.Helper()
	var got []hookReceipt
	h.wait(t, what, func() bool {
		got = append(got[:0], h.receipts...)
		return ok(got)
	})
	return got
}

// waitStalled waits until a stall holds a POST.
func (h *hookSink) waitStalled(t *testing.T) {
	t.Helper()
	h.wait(t, "a stalled POST", func() bool { return h.stalls > 0 })
}

// wait waits until ok, called under h.mu, holds.
func (h *hookSink) wait(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.NewTimer(5 * time.Second)
	defer deadline.Stop()
	for {
		h.mu.Lock()
		done, changed := ok(), h.changed
		h.mu.Unlock()
		if done {
			return
		}
		select {
		case <-changed:
		case <-deadline.C:
			h.mu.Lock()
			defer h.mu.Unlock()
			t.Fatalf("sink never satisfied %q: %+v", what, h.receipts)
		}
	}
}

// TestWebhookDelivery pins the happy path: registering an endpoint
// with since=0 replays the retained history, each new publish is
// POSTed exactly once with the identifying headers, versions arrive in
// order, and the cursor tracks the last accepted version.
func TestWebhookDelivery(t *testing.T) {
	sink := newHookSink(t)
	s := New(Config{})
	p := newFakePipe("x", 0)
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		deliver(t, s, p)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers/x/webhooks",
		map[string]any{"url": sink.ts.URL, "since": 0})
	if code != 201 {
		t.Fatalf("create webhook: %d %s", code, body)
	}
	var created hookInfo
	if err := jsonUnmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.ID != "h1" || created.URL != sink.ts.URL {
		t.Fatalf("created: %+v", created)
	}

	got := sink.waitFor(t, "3 replayed deliveries", func(rs []hookReceipt) bool { return len(rs) >= 3 })
	for i, r := range got[:3] {
		if r.version != uint64(i+1) || r.wrapper != "x" || r.webhook != "h1" {
			t.Fatalf("receipt %d: %+v", i, r)
		}
		if !strings.Contains(r.body, fmt.Sprintf(`n="%d"`, i+1)) {
			t.Fatalf("receipt %d body: %q", i, r.body)
		}
	}

	// A new publish fans out to the endpoint.
	deliver(t, s, p)
	sink.waitFor(t, "live delivery of version 4", func(rs []hookReceipt) bool {
		return len(rs) >= 4 && rs[len(rs)-1].version == 4
	})

	// The listing reports the advanced cursor and the delivery count.
	waitInfo(t, ts.URL+"/v1/wrappers/x/webhooks/h1", "cursor at 4", func(w hookInfo) bool { return w.Cursor == 4 })
	var listing struct {
		Name     string     `json:"name"`
		Webhooks []hookInfo `json:"webhooks"`
	}
	_, body, _ = do(t, "GET", ts.URL+"/v1/wrappers/x/webhooks", nil)
	if err := jsonUnmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Webhooks) != 1 {
		t.Fatalf("listing: %s", body)
	}
	if w := listing.Webhooks[0]; w.Cursor != 4 || w.Deliveries != 4 || w.Failures != 0 {
		t.Fatalf("webhook stats: %+v", w)
	}

	// DELETE retires the endpoint: no further deliveries.
	code, _, _ = do(t, "DELETE", ts.URL+"/v1/wrappers/x/webhooks/h1", nil)
	if code != 204 {
		t.Fatalf("delete webhook: %d", code)
	}
	if code, _, _ := do(t, "GET", ts.URL+"/v1/wrappers/x/webhooks/h1", nil); code != 404 {
		t.Fatalf("deleted webhook still listed: %d", code)
	}
	// A second endpoint from version 4 on sees version 5; the retired
	// one never does.
	if code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers/x/webhooks",
		map[string]any{"url": sink.ts.URL, "since": 4}); code != 201 {
		t.Fatalf("create second webhook: %d %s", code, body)
	}
	deliver(t, s, p)
	got = sink.waitFor(t, "version 5 at the second endpoint", func(rs []hookReceipt) bool {
		return len(rs) > 0 && rs[len(rs)-1].webhook == "h2" && rs[len(rs)-1].version == 5
	})
	for _, r := range got[4:] {
		if r.webhook != "h2" {
			t.Fatalf("retired endpoint still delivered: %+v", r)
		}
	}
}

// TestWebhookGapAfterWrap: an endpoint registered with since 0 after
// the in-memory ring has wrapped starts at the oldest retained version,
// and its first POST says so in the Lixto-Gap header; the POSTs after
// it carry none.
func TestWebhookGapAfterWrap(t *testing.T) {
	sink := newHookSink(t)
	s := New(Config{})
	p := newFakePipe("x", 0)
	p.out.Retain = 4
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // versions 1..10; the ring keeps 7..10
		deliver(t, s, p)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers/x/webhooks",
		map[string]any{"url": sink.ts.URL, "since": 0}); code != 201 {
		t.Fatalf("create: %d %s", code, body)
	}
	got := sink.waitFor(t, "the retained versions", func(rs []hookReceipt) bool { return len(rs) >= 4 })
	for i, r := range got {
		wantGap := ""
		if i == 0 {
			wantGap = "7"
		}
		if r.version != uint64(7+i) || r.gap != wantGap {
			t.Fatalf("receipt %d: version %d Lixto-Gap %q, want %d %q", i, r.version, r.gap, 7+i, wantGap)
		}
	}
}

// TestWebhookSinceAbsent: without "since" the cursor starts at the
// current version — history is not replayed, only new results flow.
func TestWebhookSinceAbsent(t *testing.T) {
	sink := newHookSink(t)
	s := New(Config{})
	p := newFakePipe("x", 0)
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	deliver(t, s, p)
	deliver(t, s, p)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers/x/webhooks",
		map[string]any{"url": sink.ts.URL}); code != 201 {
		t.Fatalf("create: %d %s", code, body)
	}
	// The dispatcher delivers in order: had it replayed history, its
	// first POST would carry version 1.
	deliver(t, s, p)
	got := sink.waitFor(t, "only the new version", func(rs []hookReceipt) bool { return len(rs) >= 1 })
	if got[0].version != 3 {
		t.Fatalf("first delivery version = %d, want 3 (history replayed without since)", got[0].version)
	}
}

// TestWebhookSinceAheadRejected: a since past the current version is
// refused with the 400 envelope naming the head; registered anyway it
// would skip every version up to it.
func TestWebhookSinceAheadRejected(t *testing.T) {
	s := New(Config{})
	p := newFakePipe("x", 0)
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	deliver(t, s, p)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers/x/webhooks",
		map[string]any{"url": "http://h/x", "since": 50})
	if e := envelope(t, body); code != 400 || e.Kind != "bad_request" || !strings.Contains(e.Message, "current version 1") {
		t.Fatalf("since ahead of the head: %d %s", code, body)
	}
	if n := s.readPipe("x").hooks.count(); n != 0 {
		t.Fatalf("%d endpoints registered by a refused request", n)
	}
	// since equal to the head is the "from now" cursor.
	if code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers/x/webhooks",
		map[string]any{"url": "http://h/x", "since": 1}); code != 201 {
		t.Fatalf("since at the head: %d %s", code, body)
	}
}

// TestWebhookValidation pins the route's error envelopes.
func TestWebhookValidation(t *testing.T) {
	s := New(Config{})
	p := newFakePipe("x", 0)
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, bad := range []string{"", "not-a-url", "ftp://host/x", "http://"} {
		code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers/x/webhooks", map[string]any{"url": bad})
		if code != 400 || envelope(t, body).Kind != "bad_request" {
			t.Fatalf("url=%q: %d %s", bad, code, body)
		}
	}
	code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers/nosuch/webhooks", map[string]any{"url": "http://h/x"})
	if code != 404 || envelope(t, body).Kind != "not_found" {
		t.Fatalf("unknown wrapper: %d %s", code, body)
	}
	code, _, hdr := do(t, "PUT", ts.URL+"/v1/wrappers/x/webhooks", nil)
	if code != 405 || hdr.Get("Allow") != "GET, POST" {
		t.Fatalf("405: %d Allow=%q", code, hdr.Get("Allow"))
	}
	code, _, hdr = do(t, "POST", ts.URL+"/v1/wrappers/x/webhooks/h1", nil)
	if code != 405 || hdr.Get("Allow") != "GET, DELETE" {
		t.Fatalf("405 item: %d Allow=%q", code, hdr.Get("Allow"))
	}
	// The per-wrapper cap.
	for i := 0; i < maxHooksPerWrapper; i++ {
		if code, _, _ = do(t, "POST", ts.URL+"/v1/wrappers/x/webhooks", map[string]any{"url": "http://h/" + strconv.Itoa(i)}); code != 201 {
			t.Fatalf("webhook %d: %d", i+1, code)
		}
	}
	code, body, _ = do(t, "POST", ts.URL+"/v1/wrappers/x/webhooks", map[string]any{"url": "http://h/y"})
	if code != 422 || !strings.Contains(body, "limit") {
		t.Fatalf("over cap: %d %s", code, body)
	}
}

// TestWebhookRetryBackoff: a failing endpoint is retried with backoff
// until it accepts; the cursor never advances past an unacknowledged
// version, and the failure/retry counters record the attempts. Each
// retry waits on the server's clock.
func TestWebhookRetryBackoff(t *testing.T) {
	sink := newHookSink(t)
	sink.setFailing(true)
	clk := newFakeClock()
	s := New(Config{clock: clk})
	p := newFakePipe("x", 0)
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	deliver(t, s, p)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers/x/webhooks",
		map[string]any{"url": sink.ts.URL, "since": 0})
	if code != 201 {
		t.Fatalf("create: %d %s", code, body)
	}
	// Two failed attempts, each followed by a backoff timer; nothing
	// retries until the clock passes it.
	clk.waitTimers(t, 1)
	clk.Advance(hookBackoffMax)
	clk.waitTimers(t, 1)
	w := hookInfoOf(t, ts.URL+"/v1/wrappers/x/webhooks/h1")
	if w.Failures != 2 || w.Retries != 2 || w.Cursor != 0 || w.State != "retrying" {
		t.Fatalf("after two failures: %+v", w)
	}
	sink.setFailing(false)
	clk.Advance(hookBackoffMax)
	got := sink.waitFor(t, "eventual delivery", func(rs []hookReceipt) bool { return len(rs) >= 1 })
	if got[0].version != 1 {
		t.Fatalf("delivered version = %d, want 1", got[0].version)
	}
	w = waitInfo(t, ts.URL+"/v1/wrappers/x/webhooks/h1", "cursor advanced", func(w hookInfo) bool {
		return w.Cursor == 1
	})
	if w.Deliveries != 1 || w.Failures != 2 || w.Retries != 2 {
		t.Fatalf("counters after recovery: %+v", w)
	}
	if w.LastError != "" {
		t.Fatalf("last error after recovery: %q", w.LastError)
	}
}

// TestWebhookBreaker: a run of failures past the attempt cap opens the
// circuit breaker (visible in the endpoint state and the aggregate
// stats); the breaker holds for its whole cooldown, then the half-open
// probe redelivers and the breaker closes. No version is ever skipped.
func TestWebhookBreaker(t *testing.T) {
	sink := newHookSink(t)
	sink.setFailing(true)
	clk := newFakeClock()
	s := New(Config{clock: clk})
	p := newFakePipe("x", 0)
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	deliver(t, s, p)
	deliver(t, s, p)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers/x/webhooks",
		map[string]any{"url": sink.ts.URL, "since": 0}); code != 201 {
		t.Fatalf("create: %d %s", code, body)
	}
	// Attempts 1..5 each back off at most hookBackoffMax; the sixth
	// failure opens the breaker.
	for attempt := 1; attempt < hookMaxAttempts; attempt++ {
		clk.waitTimers(t, 1)
		if w := hookInfoOf(t, ts.URL+"/v1/wrappers/x/webhooks/h1"); w.State != "retrying" {
			t.Fatalf("after attempt %d: %+v", attempt, w)
		}
		clk.Advance(hookBackoffMax)
	}
	clk.waitTimers(t, 1) // the cooldown
	if w := hookInfoOf(t, ts.URL+"/v1/wrappers/x/webhooks/h1"); w.State != "open" || w.BreakerOpens != 1 || w.Failures != hookMaxAttempts {
		t.Fatalf("breaker not open after %d failures: %+v", hookMaxAttempts, w)
	}
	// The aggregate block counts the open breaker.
	var status struct {
		Webhooks WebhookStatus `json:"webhooks"`
	}
	_, body, _ := do(t, "GET", ts.URL+"/statusz", nil)
	if err := jsonUnmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	if status.Webhooks.Endpoints != 1 || status.Webhooks.BreakerOpen != 1 || status.Webhooks.BreakerOpens != 1 {
		t.Fatalf("aggregate webhook stats: %+v", status.Webhooks)
	}
	// The breaker holds for its whole cooldown.
	clk.Advance(hookCooldown - time.Millisecond)
	if w := hookInfoOf(t, ts.URL+"/v1/wrappers/x/webhooks/h1"); w.State != "open" || w.Failures != hookMaxAttempts {
		t.Fatalf("probed before the cooldown ended: %+v", w)
	}

	// Recovery: the half-open probe goes through and the backlog drains
	// in order — both versions, nothing skipped.
	sink.setFailing(false)
	clk.Advance(time.Millisecond)
	got := sink.waitFor(t, "backlog drained", func(rs []hookReceipt) bool { return len(rs) >= 2 })
	if got[0].version != 1 || got[1].version != 2 {
		t.Fatalf("post-breaker order: %+v", got)
	}
	waitInfo(t, ts.URL+"/v1/wrappers/x/webhooks/h1", "breaker closed", func(w hookInfo) bool {
		return w.State != "open" && w.Cursor == 2
	})
}

// TestWebhookCursorRestart: with a result store, endpoint
// registrations and their cursors survive a restart — the restored
// dispatcher resumes after the last acknowledged version instead of
// replaying the whole log.
func TestWebhookCursorRestart(t *testing.T) {
	sink := newHookSink(t)
	dir := t.TempDir()
	store := openStore(t, dir)
	s1 := New(Config{ResultStore: store})
	p1 := newFakePipe("x", 0)
	if err := s1.Register(p1, time.Hour); err != nil {
		t.Fatal(err)
	}
	deliver(t, s1, p1)
	deliver(t, s1, p1)
	ts1 := httptest.NewServer(s1.Handler())
	if code, body, _ := do(t, "POST", ts1.URL+"/v1/wrappers/x/webhooks",
		map[string]any{"url": sink.ts.URL, "since": 0}); code != 201 {
		t.Fatalf("create: %d %s", code, body)
	}
	sink.waitFor(t, "both versions delivered", func(rs []hookReceipt) bool { return len(rs) >= 2 })
	// The sink records a delivery before it responds, and the dispatcher
	// advances the cursor only once it reads the 2xx: wait for the
	// acknowledgement, or close could persist cursor 1 (at-least-once
	// delivery would then rightly redeliver version 2).
	waitInfo(t, ts1.URL+"/v1/wrappers/x/webhooks/h1", "cursor at 2", func(w hookInfo) bool { return w.Cursor == 2 })
	ts1.Close()
	// Shutdown persists the final cursors (a DELETE does the same through
	// retireLocked).
	s1.pipe("x").hooks.close()
	store.Close()

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

	w := waitInfo(t, ts2.URL+"/v1/wrappers/x/webhooks/h1", "restored endpoint", func(w hookInfo) bool {
		return w.URL == sink.ts.URL
	})
	if w.Cursor != 2 {
		t.Fatalf("restored cursor = %d, want 2", w.Cursor)
	}
	// Nothing is redelivered; the next publish picks up at version 3.
	before := len(sink.snapshot())
	deliver(t, s2, p2)
	got := sink.waitFor(t, "post-restart delivery", func(rs []hookReceipt) bool { return len(rs) > before })
	if got[len(got)-1].version != 3 {
		t.Fatalf("post-restart version = %d, want 3", got[len(got)-1].version)
	}
	if len(got) != before+1 {
		t.Fatalf("restart redelivered acknowledged versions: %+v", got)
	}
}

// TestShutdownWritesNoEmptyHooks: shutdown persists the cursors of a
// wrapper with endpoints, and writes nothing for one that never had an
// endpoint, so its store directory holds no webhooks.json.
func TestShutdownWritesNoEmptyHooks(t *testing.T) {
	sink := newHookSink(t)
	dir := t.TempDir()
	store := openStore(t, dir)
	defer store.Close()
	s := New(Config{ResultStore: store})
	for _, name := range []string{"bare", "hooked"} {
		if err := s.Register(newFakePipe(name, 0), time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	stop := runServer(t, s)
	ts := httptest.NewServer(s.Handler())
	if code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers/hooked/webhooks",
		map[string]any{"url": sink.ts.URL, "since": 0}); code != 201 {
		t.Fatalf("create: %d %s", code, body)
	}
	ts.Close()
	stop()
	if _, err := os.Stat(filepath.Join(dir, "bare", hooksFile)); !os.IsNotExist(err) {
		t.Fatalf("hookless wrapper's %s after shutdown: %v", hooksFile, err)
	}
	var metas []hookMeta
	if err := store.LoadMeta("hooked", hooksFile, &metas); err != nil || len(metas) != 1 {
		t.Fatalf("hooked wrapper's %s after shutdown: %v, %+v", hooksFile, err, metas)
	}
}

// TestStatuszWebhookShape pins the "webhooks" stats block keys on
// /statusz and GET /v1/wrappers, and the per-wrapper endpoint count in
// the listing.
func TestStatuszWebhookShape(t *testing.T) {
	sink := newHookSink(t)
	s := New(Config{})
	p := newFakePipe("x", 0)
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	deliver(t, s, p)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers/x/webhooks",
		map[string]any{"url": sink.ts.URL, "since": 0}); code != 201 {
		t.Fatalf("create: %d %s", code, body)
	}
	sink.waitFor(t, "delivery", func(rs []hookReceipt) bool { return len(rs) >= 1 })

	for _, url := range []string{ts.URL + "/statusz", ts.URL + "/v1/wrappers"} {
		code, body, _ := do(t, "GET", url, nil)
		if code != 200 {
			t.Fatalf("%s = %d", url, code)
		}
		for _, key := range []string{`"webhooks"`, `"endpoints"`, `"breaker_open"`,
			`"deliveries"`, `"failures"`, `"retries"`, `"breaker_opens"`} {
			if !strings.Contains(body, key) {
				t.Errorf("%s missing %s", url, key)
			}
		}
		if !strings.Contains(body, `"endpoints": 1`) {
			t.Errorf("%s does not count the endpoint:\n%s", url, body)
		}
	}
	// The wrapper listing carries the per-wrapper endpoint count.
	_, body, _ := do(t, "GET", ts.URL+"/v1/wrappers", nil)
	var listing struct {
		Wrappers []struct {
			Name     string `json:"name"`
			Webhooks int    `json:"webhooks"`
		} `json:"wrappers"`
	}
	if err := jsonUnmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Wrappers) != 1 || listing.Wrappers[0].Webhooks != 1 {
		t.Fatalf("listing webhook count: %s", body)
	}
}

// TestBackoffDelayBounds pins the backoff curve: exponential from min,
// capped at max, jittered within [d/2, d].
func TestBackoffDelayBounds(t *testing.T) {
	min, max := 100*time.Millisecond, time.Second
	for attempt := 1; attempt <= 12; attempt++ {
		want := min << (attempt - 1)
		if want > max || want <= 0 {
			want = max
		}
		for i := 0; i < 20; i++ {
			d := backoffDelay(min, max, attempt)
			if d < want/2 || d > want {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
}

// hookInfoOf reads one webhook's status.
func hookInfoOf(t *testing.T, url string) hookInfo {
	t.Helper()
	code, body, _ := do(t, "GET", url, nil)
	var w hookInfo
	if err := jsonUnmarshal(body, &w); code != 200 || err != nil {
		t.Fatalf("GET %s: %d %s", url, code, body)
	}
	return w
}

// waitInfo polls one webhook's status endpoint until ok is satisfied.
// It polls because the cursor advances only once the dispatcher has
// read the endpoint's 2xx, after the sink recorded the delivery, and
// nothing signals that step.
func waitInfo(t *testing.T, url, what string, ok func(hookInfo) bool) hookInfo {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body, _ := do(t, "GET", url, nil)
		var w hookInfo
		if err := jsonUnmarshal(body, &w); err == nil && ok(w) {
			return w
		}
		if time.Now().After(deadline) {
			t.Fatalf("webhook never reached %q: %s", what, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
