package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"repro/internal/xmlenc"
)

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	event string
	id    uint64
	data  string
}

// sseClient consumes a watch stream. Events are parsed on a reader
// goroutine so tests can wait with timeouts.
type sseClient struct {
	resp   *http.Response
	events chan sseEvent
	errs   chan error
	cancel context.CancelFunc
}

func openWatch(t *testing.T, url string, header ...string) *sseClient {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		cancel()
		resp.Body.Close()
		t.Fatalf("watch open: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream; charset=utf-8" {
		t.Fatalf("watch Content-Type = %q", ct)
	}
	c := &sseClient{resp: resp, events: make(chan sseEvent, 64), errs: make(chan error, 1), cancel: cancel}
	go c.readLoop()
	t.Cleanup(c.close)
	return c
}

func (c *sseClient) close() {
	c.cancel()
	c.resp.Body.Close()
}

func (c *sseClient) readLoop() {
	br := bufio.NewReader(c.resp.Body)
	var ev sseEvent
	var data []string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			c.errs <- err
			return
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if ev.event != "" || len(data) > 0 {
				ev.data = strings.Join(data, "\n")
				c.events <- ev
			}
			ev, data = sseEvent{}, nil
		case strings.HasPrefix(line, ":"):
			// Comment (heartbeat); ignored.
		case strings.HasPrefix(line, "event: "):
			ev.event = line[len("event: "):]
		case strings.HasPrefix(line, "id: "):
			ev.id, _ = strconv.ParseUint(line[len("id: "):], 10, 64)
		case strings.HasPrefix(line, "data: "):
			data = append(data, line[len("data: "):])
		}
	}
}

// next waits for the next event.
func (c *sseClient) next(t *testing.T, timeout time.Duration) sseEvent {
	t.Helper()
	select {
	case ev := <-c.events:
		return ev
	case err := <-c.errs:
		// The final events of a closing stream may already be parsed
		// and queued; drain them before reporting the stream end.
		select {
		case ev := <-c.events:
			return ev
		default:
		}
		t.Fatalf("watch stream ended: %v", err)
	case <-time.After(timeout):
		t.Fatal("no SSE event within timeout")
	}
	return sseEvent{}
}

// none asserts no event arrives within the window.
func (c *sseClient) none(t *testing.T, window time.Duration) {
	t.Helper()
	select {
	case ev := <-c.events:
		t.Fatalf("unexpected SSE event %q id=%d", ev.event, ev.id)
	case <-time.After(window):
	}
}

// deliver ticks p; the collector's journal publishes the result.
func deliver(t *testing.T, s *Server, p *fakePipe) {
	t.Helper()
	if err := p.Tick(); err != nil {
		t.Fatal(err)
	}
}

func TestWatchStreamsChanges(t *testing.T) {
	s := New(Config{})
	p := newFakePipe("feed", 0)
	if err := registerDynamic(s, p, 0, true); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close) // after the SSE clients close (cleanups run LIFO)

	c := openWatch(t, ts.URL+"/v1/wrappers/feed/watch")
	// The current state arrives immediately.
	ev := c.next(t, 2*time.Second)
	if ev.event != "result" || !strings.Contains(ev.data, `n="1"`) {
		t.Fatalf("initial event: %q %q", ev.event, ev.data)
	}
	// Each change streams one event whose payload matches the GET body.
	deliver(t, s, p)
	ev = c.next(t, 2*time.Second)
	_, body, _ := get(t, ts.URL+"/feed")
	if ev.event != "result" || ev.data != strings.TrimRight(body, "\n") {
		t.Fatalf("watch payload diverges from GET:\n%q\nvs\n%q", ev.data, body)
	}
	// A no-op re-delivery (same document pointer) is suppressed.
	doc := p.out.Latest()
	if _, err := p.out.Process("", doc); err != nil {
		t.Fatal(err)
	}
	c.none(t, 150*time.Millisecond)

	// JSON subscribers get the JSON rendering of the same snapshot.
	cj := openWatch(t, ts.URL+"/v1/wrappers/feed/watch", "Accept", "application/json")
	ev = cj.next(t, 2*time.Second)
	if !strings.HasPrefix(ev.data, "{") {
		t.Fatalf("JSON watch payload: %q", ev.data)
	}

	ds := s.DeliveryStatus()
	if ds.Subscribers != 2 || ds.SubscribersTotal != 2 || ds.SuppressedNoopTicks != 1 {
		t.Fatalf("delivery stats: %+v", ds)
	}
}

func TestWatchDeleteAndPatch(t *testing.T) {
	s := New(Config{})
	p := newFakePipe("live", 0)
	if err := registerDynamic(s, p, 0, true); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close) // after the SSE clients close (cleanups run LIFO)

	c := openWatch(t, ts.URL+"/v1/wrappers/live/watch")
	c.next(t, 2*time.Second) // initial state

	// A live reschedule must not disturb the subscription.
	if err := s.setInterval("live", time.Hour); err != nil {
		t.Fatal(err)
	}
	deliver(t, s, p)
	if ev := c.next(t, 2*time.Second); ev.event != "result" {
		t.Fatalf("after PATCH: %q", ev.event)
	}

	// DELETE closes the stream with an explicit close event.
	if err := s.deregister("live"); err != nil {
		t.Fatal(err)
	}
	if ev := c.next(t, 2*time.Second); ev.event != "close" || ev.data != "deregistered" {
		t.Fatalf("after DELETE: %q %q", ev.event, ev.data)
	}

	// New watches on the retired name 404 with the envelope.
	code, body, _ := get(t, ts.URL+"/v1/wrappers/live/watch")
	if code != 404 || !strings.Contains(body, `"not_found"`) {
		t.Fatalf("watch after delete: %d %q", code, body)
	}
	// Bad methods get the uniform 405.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/wrappers/live/watch", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 || resp.Header.Get("Allow") != "GET" {
		t.Fatalf("watch POST: %d Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// TestWatchSlowClientDrops pins the backpressure policy: a subscriber
// that stops reading loses its oldest pending events (counted) while
// the tick path never blocks, and the subscriber coalesces onto recent
// state once it resumes.
func TestWatchSlowClientDrops(t *testing.T) {
	s := New(Config{watchQueue: 2})
	p := newFakePipe("burst", 0)
	if err := registerDynamic(s, p, 0, true); err != nil {
		t.Fatal(err)
	}
	ps := s.readPipe("burst")
	sub := ps.deliver.hub.subscribe(s.cfg.watchQueue, false)
	if sub == nil {
		t.Fatal("subscribe failed")
	}
	defer ps.deliver.hub.unsubscribe(sub)

	// A probe subscriber with room for every event: once it holds the
	// last one, the dispatcher has offered all of them to sub too.
	probe := ps.deliver.hub.subscribe(32, false)
	defer ps.deliver.hub.unsubscribe(probe)

	// Publish far more changes than the queue holds without reading.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			deliver(t, s, p)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("broadcast blocked on a slow subscriber")
	}
	// broadcast only enqueues; wait for the dispatcher to fan the
	// backlog out before inspecting the subscriber queue.
	for latest := ps.deliver.seq.Load(); ; {
		select {
		case ev := <-probe.ch:
			if ev.seq < latest {
				continue
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the dispatcher never fanned out the last event")
		}
		break
	}
	ds := s.DeliveryStatus()
	if ds.DroppedSlow == 0 {
		t.Fatalf("no drops counted after overflowing a queue of 2: %+v", ds)
	}
	// The queue still holds the most recent events in order.
	var last uint64
	n := 0
	for {
		select {
		case sn := <-sub.ch:
			if sn.seq <= last {
				t.Fatalf("event order violated: %d after %d", sn.seq, last)
			}
			last = sn.seq
			n++
			continue
		default:
		}
		break
	}
	if n == 0 || n > 2 {
		t.Fatalf("queued events = %d, want 1..2", n)
	}
	if last != ps.deliver.seq.Load() {
		t.Fatalf("newest queued event %d is not the latest snapshot %d", last, ps.deliver.seq.Load())
	}
}

// TestWatchShutdownDrain runs the real server lifecycle and asserts
// cancellation cleanly ends open SSE streams with a close event instead
// of hanging Shutdown until the grace timeout.
func TestWatchShutdownDrain(t *testing.T) {
	p := newFakePipe("drainfeed", 0)
	s := New(Config{Addr: "127.0.0.1:0"})
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := p.Tick(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	select {
	case <-s.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + s.Addr()

	clients := make([]*sseClient, 3)
	for i := range clients {
		clients[i] = openWatch(t, base+"/v1/wrappers/drainfeed/watch")
		clients[i].next(t, 2*time.Second) // initial state
	}

	start := time.Now()
	cancel()
	for _, c := range clients {
		// Result events scheduled before the drain may still arrive;
		// the stream must end with the shutdown close event.
		for {
			ev := c.next(t, 3*time.Second)
			if ev.event == "result" {
				continue
			}
			if ev.event != "close" || ev.data != "shutting down" {
				t.Fatalf("shutdown close event: %q %q", ev.event, ev.data)
			}
			break
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("Run did not return after cancel with open watch streams")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("shutdown waited out the grace period (%v) instead of draining streams", elapsed)
	}
}

// TestWatchLifecycleStress races subscribe/unsubscribe against
// DELETE, re-register, and PATCH reschedules (run under -race in CI):
// no writes to closed subscribers, no stuck streams, and every
// subscriber observes strictly increasing event ids.
func TestWatchLifecycleStress(t *testing.T) {
	// Each subscriber moves the clock a heartbeat on, exercising the
	// keepalive path under churn; stopping cancels its open reads.
	clk := newFakeClock()
	s := New(Config{watchQueue: 4, clock: clk})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close) // after the SSE clients close (cleanups run LIFO)

	reg := func() error { return registerDynamic(s, newFakePipe("churn", 0), 0, true) }
	if err := reg(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Millisecond)
	defer cancel()
	stop := ctx.Done()
	var wg sync.WaitGroup

	// Lifecycle churn: delete, re-register, reschedule.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.deregister("churn")
			reg()
			s.setInterval("churn", time.Duration(1+time.Now().UnixNano()%5)*time.Hour)
		}
	}()
	// Publisher: keep delivering on whatever pipeline is current.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if ps := s.readPipe("churn"); ps != nil {
				if fp, ok := ps.p.(*fakePipe); ok {
					fp.Tick()
				}
			}
		}
	}()
	// Subscribers: open a watch, consume a few events asserting id
	// monotonicity, close, repeat.
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/wrappers/churn/watch", nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					continue
				}
				if resp.StatusCode != 200 {
					resp.Body.Close()
					continue
				}
				clk.Advance(watchHeartbeat)
				br := bufio.NewReader(resp.Body)
				var last uint64
				for ev := 0; ev < 8; ev++ {
					line, err := br.ReadString('\n')
					if err != nil {
						break
					}
					line = strings.TrimRight(line, "\n")
					if !strings.HasPrefix(line, "id: ") {
						continue
					}
					id, _ := strconv.ParseUint(line[len("id: "):], 10, 64)
					if id <= last {
						t.Errorf("subscriber saw id %d after %d", id, last)
						break
					}
					last = id
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	// After the churn settles the server still works end to end.
	s.deregister("churn")
	if err := reg(); err != nil {
		t.Fatal(err)
	}
	c := openWatch(t, ts.URL+"/v1/wrappers/churn/watch")
	if ev := c.next(t, 2*time.Second); ev.event != "result" {
		t.Fatalf("post-stress watch: %q", ev.event)
	}
	if code, _, _ := get(t, ts.URL+"/churn"); code != 200 {
		t.Fatalf("post-stress read: %d", code)
	}
}

// TestWatchCloseEventWireFormat pins the exact close-event bytes on
// the wire. Clients key on these strings; changing either is a
// breaking protocol change.
func TestWatchCloseEventWireFormat(t *testing.T) {
	s := New(Config{})
	p := newFakePipe("pin", 0)
	if err := registerDynamic(s, p, 0, true); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/wrappers/pin/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The stream is subscribed once its initial frame has arrived.
	done := make(chan string, 1)
	br := bufio.NewReader(resp.Body)
	eventSourceData(t, br, "result")
	go func() {
		raw, _ := io.ReadAll(br)
		done <- string(raw)
	}()
	if err := s.deregister("pin"); err != nil {
		t.Fatal(err)
	}
	select {
	case raw := <-done:
		if !strings.HasSuffix(raw, "event: close\ndata: deregistered\n\n") {
			t.Fatalf("deregister close frame not byte-exact; stream tail: %q", raw[max(0, len(raw)-80):])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end after deregister")
	}

	// The drain variant: a running server cancelled with an open stream.
	p2 := newFakePipe("pin2", 0)
	s2 := New(Config{Addr: "127.0.0.1:0"})
	if err := s2.Register(p2, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := p2.Tick(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- s2.Run(ctx) }()
	<-s2.Ready()
	resp2, err := http.Get("http://" + s2.Addr() + "/v1/wrappers/pin2/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	done2 := make(chan string, 1)
	br2 := bufio.NewReader(resp2.Body)
	eventSourceData(t, br2, "result")
	go func() {
		raw, _ := io.ReadAll(br2)
		done2 <- string(raw)
	}()
	cancel()
	select {
	case raw := <-done2:
		if !strings.HasSuffix(raw, "event: close\ndata: shutting down\n\n") {
			t.Fatalf("shutdown close frame not byte-exact; stream tail: %q", raw[max(0, len(raw)-80):])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end after shutdown")
	}
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
}

func TestWatchStatuszShape(t *testing.T) {
	s := New(Config{})
	p := newFakePipe("shape", 0)
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := p.Tick(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close) // after the SSE clients close (cleanups run LIFO)
	c := openWatch(t, ts.URL+"/v1/wrappers/shape/watch")
	c.next(t, 2*time.Second)

	for _, url := range []string{ts.URL + "/statusz", ts.URL + "/v1/wrappers"} {
		code, body, _ := get(t, url)
		if code != 200 {
			t.Fatalf("%s = %d", url, code)
		}
		for _, key := range []string{`"delivery"`, `"snapshots"`, `"suppressed_noop_ticks"`,
			`"broadcasts"`, `"subscribers"`, `"subscribers_total"`, `"dropped_slow"`,
			`"etag_hits"`, `"etag_misses"`} {
			if !strings.Contains(body, key) {
				t.Errorf("%s missing %s", url, key)
			}
		}
		if !strings.Contains(body, fmt.Sprintf(`"subscribers": %d`, 1)) {
			t.Errorf("%s does not report the live subscriber", url)
		}
	}
}

// collected reports whether the object behind w is garbage once the
// collector has run a few times.
func collected[T any](w weak.Pointer[T]) bool {
	for i := 0; i < 5 && w.Value() != nil; i++ {
		runtime.GC()
	}
	return w.Value() == nil
}

// TestWatchFramesInFlightOnly pins frame ownership: the dispatcher
// frames a broadcast for the subscriber's representation, the snapshot
// keeps no copy, and the frame is garbage once the subscriber has
// written it — or once a full queue dropped it.
func TestWatchFramesInFlightOnly(t *testing.T) {
	var h watchHub
	defer h.close()
	sub := h.subscribe(1, false)
	doc := xmlenc.NewElement("doc")
	doc.AppendTextElement("row", "a frame's worth of text, well past the tiny-allocation size")
	sn := newSnapshot(doc, 1, 1)
	h.broadcast(sn)
	var ev watchEvent
	select {
	case ev = <-sub.ch:
	case <-time.After(5 * time.Second):
		t.Fatal("no event from the dispatcher")
	}
	if ev.snapshot != sn || !bytes.Equal(ev.frame, sseFrameFor(sn.xml, sn.ver)) {
		t.Fatalf("queued event is not the snapshot's XML frame: %q", ev.frame)
	}
	frame := weak.Make(&ev.frame[0])
	ev = watchEvent{} // written
	if !collected(frame) {
		t.Error("the frame outlived its only subscriber's write")
	}

	// A full queue drops its oldest event, and that event's frame.
	sn2, sn3 := newSnapshot(doc, 2, 2), newSnapshot(doc, 3, 3)
	f2, f3 := sseFrameFor(sn2.xml, 2), sseFrameFor(sn3.xml, 3)
	dropped := weak.Make(&f2[0])
	h.mu.Lock()
	h.fanoutLocked(sn2, [2][]byte{f2, nil})
	h.fanoutLocked(sn3, [2][]byte{f3, nil})
	h.mu.Unlock()
	f2 = nil
	if h.dropped != 1 {
		t.Fatalf("dropped = %d, want 1", h.dropped)
	}
	if !collected(dropped) {
		t.Error("a dropped event's frame stayed resident")
	}
	if ev = <-sub.ch; ev.ver != 3 || !bytes.Equal(ev.frame, f3) {
		t.Fatalf("queue holds version %d, want the newest (3)", ev.ver)
	}
	runtime.KeepAlive(sn)
}

// TestWatchCursorAheadOfHead: a resume cursor past the wrapper's head —
// what a browser EventSource sends after a server restarted without a
// store — is a gap. The stream sends "event: gap" with the current
// version, then the current snapshot, then live events; ?since= and
// the results route follow the same rule.
func TestWatchCursorAheadOfHead(t *testing.T) {
	s := New(Config{})
	p := newFakePipe("feed", 0)
	if err := registerDynamic(s, p, 0, true); err != nil { // version 1
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close) // after the SSE clients close (cleanups run LIFO)

	byHeader := openWatch(t, ts.URL+"/v1/wrappers/feed/watch", "Last-Event-ID", "50")
	byQuery := openWatch(t, ts.URL+"/v1/wrappers/feed/watch?since=50")
	for _, c := range []*sseClient{byHeader, byQuery} {
		if ev := c.next(t, 2*time.Second); ev.event != "gap" || ev.data != "1" {
			t.Fatalf("first event: %q %q, want the gap to version 1", ev.event, ev.data)
		}
		if ev := c.next(t, 2*time.Second); ev.event != "result" || ev.id != 1 || !strings.Contains(ev.data, `n="1"`) {
			t.Fatalf("after the gap: %q id=%d %q, want the current snapshot", ev.event, ev.id, ev.data)
		}
	}
	deliver(t, s, p) // version 2, new content
	for _, c := range []*sseClient{byHeader, byQuery} {
		if ev := c.next(t, 2*time.Second); ev.event != "result" || ev.id != 2 {
			t.Fatalf("live event after the gap: %q id=%d", ev.event, ev.id)
		}
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/wrappers/feed/results?since=50", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if gap := resp.Header.Get("Lixto-Gap"); resp.StatusCode != 200 || gap != "2" ||
		!strings.Contains(string(body), `version="2"`) || strings.Contains(string(body), `version="1"`) {
		t.Fatalf("results?since=50 at head 2: %d Lixto-Gap=%q\n%s", resp.StatusCode, gap, body)
	}
}

// TestWatchHeartbeat: an open stream sends a comment heartbeat each
// time watchHeartbeat passes on the server's clock, and not before.
func TestWatchHeartbeat(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{clock: clk})
	if err := registerDynamic(s, newFakePipe("beat", 0), 0, true); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	br, stop := openStream(t, ts.URL+"/v1/wrappers/beat/watch")
	defer stop()
	eventSourceData(t, br, "result") // the current state
	for i := 0; i < 2; i++ {
		clk.waitTimers(t, 1) // the stream's heartbeat, armed
		clk.Advance(watchHeartbeat - time.Millisecond)
		if br.Buffered() > 0 {
			t.Fatal("heartbeat before its interval")
		}
		clk.Advance(time.Millisecond)
		if line, err := br.ReadString('\n'); err != nil || line != ": ping\n" {
			t.Fatalf("heartbeat %d: %q %v", i+1, line, err)
		}
		br.ReadString('\n') // the blank line ending the comment
	}
}
