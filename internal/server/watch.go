package server

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/resultlog"
	"repro/internal/xmlenc"
)

// replayPayload is a logged record's SSE payload: its XML bytes, or
// their JSON rendering.
func replayPayload(xml []byte, asJSON bool) []byte {
	if !asJSON {
		return xml
	}
	doc, err := xmlenc.Unmarshal(string(xml))
	if err == nil {
		var body []byte
		if body, err = xmlenc.MarshalJSONIndent(doc); err == nil {
			return body
		}
	}
	return []byte(`{"error":"encoding failure"}`)
}

// The change feed: GET /v1/wrappers/{name}/watch streams each new
// result snapshot to every subscriber as a Server-Sent Event. The hub
// fans out the already-encoded snapshot — subscribers share the bytes,
// nothing is re-marshaled per client — and never blocks the tick path:
// a subscriber whose bounded queue is full loses its oldest pending
// event (counted in dropped_slow) so it coalesces onto the newest
// state instead of stalling delivery.

// watchSub is one SSE subscriber's bounded event queue.
type watchSub struct {
	ch chan *snapshot
}

// watchHub is the per-pipeline broadcast registry. All channel sends
// and closes happen under mu, so a send can never race a close.
//
// The tick path never pays for fan-out: broadcast appends the snapshot
// to an ordered backlog and signals the hub's dispatcher goroutine,
// which performs the per-subscriber enqueues. A tick therefore costs
// O(1) in the scheduler no matter how many watchers are attached.
type watchHub struct {
	mu         sync.Mutex
	subs       map[*watchSub]struct{}
	closed     bool
	totalSubs  uint64
	broadcasts uint64
	dropped    uint64
	pending    []*snapshot   // fan-out backlog, delivered in order
	wake       chan struct{} // buffered(1): signals the dispatcher
	running    bool          // dispatcher goroutine is live
}

// subscribe registers a new subscriber with the given queue depth. It
// returns nil when the hub is already closed (pipeline deregistered).
func (h *watchHub) subscribe(queue int) *watchSub {
	if queue < 1 {
		queue = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	sub := &watchSub{ch: make(chan *snapshot, queue)}
	if h.subs == nil {
		h.subs = map[*watchSub]struct{}{}
	}
	h.subs[sub] = struct{}{}
	h.totalSubs++
	return sub
}

// unsubscribe removes and closes one subscriber; safe to call after
// the hub itself closed (the close already removed the subscriber).
func (h *watchHub) unsubscribe(sub *watchSub) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[sub]; !ok {
		return
	}
	delete(h.subs, sub)
	close(sub.ch)
}

// broadcast hands sn to the dispatcher and returns immediately; the
// caller (the tick path) never blocks on subscriber queues.
func (h *watchHub) broadcast(sn *snapshot) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || len(h.subs) == 0 {
		return
	}
	h.broadcasts++
	h.pending = append(h.pending, sn)
	if !h.running {
		h.running = true
		h.wake = make(chan struct{}, 1)
		go h.dispatch()
	}
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// dispatch drains the backlog in order, fanning each snapshot out to
// every subscriber. It exits when the hub closes.
func (h *watchHub) dispatch() {
	for {
		h.mu.Lock()
		for len(h.pending) > 0 && !h.closed {
			sn := h.pending[0]
			h.pending = h.pending[1:]
			h.fanoutLocked(sn)
		}
		h.pending = nil
		closed := h.closed
		h.mu.Unlock()
		if closed {
			return
		}
		<-h.wake
	}
}

// fanoutLocked offers sn to every subscriber without blocking: when a
// queue is full the oldest pending snapshot is dropped (counted) so
// the subscriber coalesces onto the newest state. Called with h.mu
// held by the dispatcher.
func (h *watchHub) fanoutLocked(sn *snapshot) {
	for sub := range h.subs {
		select {
		case sub.ch <- sn:
			continue
		default:
		}
		select {
		case <-sub.ch:
			h.dropped++
		default:
		}
		select {
		case sub.ch <- sn:
		default:
			h.dropped++
		}
	}
}

// close shuts the hub: every subscriber's channel is closed (their
// handlers observe it and send the SSE close event) and further
// subscriptions are refused.
func (h *watchHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for sub := range h.subs {
		close(sub.ch)
	}
	h.subs = nil
	if h.running {
		select {
		case h.wake <- struct{}{}:
		default:
		}
	}
}

// stats returns (current subscribers, lifetime subscriptions,
// broadcasts, dropped events).
func (h *watchHub) stats() (int, uint64, uint64, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs), h.totalSubs, h.broadcasts, h.dropped
}

// v1Watch is the methodless route shim: bad methods get the uniform
// 405 envelope like every other /v1 route.
func (s *Server) v1Watch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, "GET")
		return
	}
	s.handleWatch(w, r)
}

// handleWatch streams result snapshots for one wrapper as SSE. The
// stream survives PATCH reschedules (the pipeState, and so the hub,
// stays put), ends with "event: close" on DELETE or server drain, and
// sends comment heartbeats so intermediaries keep the connection open.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ps := s.readPipe(name)
	if ps == nil {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no wrapper named %q", name), nil)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "internal", "streaming unsupported by connection", nil)
		return
	}
	asJSON := wantsJSON(r)

	sub := ps.deliver.hub.subscribe(s.cfg.WatchQueue)
	if sub == nil {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("wrapper %q is deregistered", name), nil)
		return
	}
	defer ps.deliver.hub.unsubscribe(sub)

	// SSE streams outlive the server's read/write timeouts by design.
	rc := http.NewResponseController(w)
	rc.SetReadDeadline(time.Time{})
	rc.SetWriteDeadline(time.Time{})

	h := w.Header()
	h.Set("Content-Type", "text/event-stream; charset=utf-8")
	h.Set("Cache-Control", "no-store")
	h.Add("Vary", "Accept")
	w.WriteHeader(http.StatusOK)

	closeEvent := func(reason string) {
		fmt.Fprintf(w, "event: close\ndata: %s\n\n", reason)
		fl.Flush()
	}

	// A reconnecting subscriber presents its last seen delivery version
	// (the SSE id) via Last-Event-ID — or ?since= for hand-rolled
	// clients — and the missed snapshots replay from the delivery log
	// before live streaming resumes. No-op records advance the cursor
	// without re-sending. When the log no longer holds the versions
	// right after the cursor, an "event: gap" frame carrying the first
	// version replayed precedes it, and that record is sent even if it
	// is a no-op: the subscriber has not seen its content.
	var lastVer uint64
	replaying := false
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		if v, err := strconv.ParseUint(lei, 10, 64); err == nil {
			lastVer, replaying = v, true
		}
	}
	if q := r.URL.Query().Get("since"); q != "" && !replaying {
		if v, err := strconv.ParseUint(q, 10, 64); err == nil {
			lastVer, replaying = v, true
		}
	}
	if replaying {
		recs, err := ps.deliver.since(lastVer, 0)
		if err != nil {
			closeEvent(err.Error())
			return
		}
		for _, rec := range recs {
			gap := rec.Version > lastVer+1
			if gap {
				fmt.Fprintf(w, "event: gap\ndata: %d\n\n", rec.Version)
			}
			if gap || rec.Kind != resultlog.KindNoop {
				w.Write(sseFrameFor(replayPayload(rec.XML, asJSON), rec.Version))
			}
			lastVer = rec.Version
		}
	} else if sn := ps.deliver.snapshot(); sn != nil {
		// Send the current state immediately so a new subscriber does
		// not wait for the next change; remember its version to dedupe a
		// broadcast that raced the subscription.
		w.Write(sn.sseFrame(asJSON))
		lastVer = sn.ver
	}
	fl.Flush()

	heartbeat := time.NewTicker(s.cfg.WatchHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case sn, ok := <-sub.ch:
			if !ok {
				// Hub closed: wrapper deleted or registration torn down.
				closeEvent("deregistered")
				return
			}
			if sn.ver <= lastVer {
				continue
			}
			lastVer = sn.ver
			w.Write(sn.sseFrame(asJSON))
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			closeEvent("shutting down")
			return
		case <-heartbeat.C:
			fmt.Fprintf(w, ": ping\n\n")
			fl.Flush()
		}
	}
}
