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
// result snapshot to every subscriber as a Server-Sent Event. The hub's
// dispatcher frames each broadcast snapshot once per representation its
// subscribers asked for and queues that frame with the event —
// subscribers share the bytes, nothing is re-marshaled per client, and
// the snapshot itself keeps no frame: one becomes garbage once every
// subscriber has written (or dropped) it. Fan-out never blocks the tick
// path: a subscriber whose bounded queue is full loses its oldest
// pending event (counted in dropped_slow) so it coalesces onto the
// newest state instead of stalling delivery.

// watchSub is one SSE subscriber's bounded event queue and the
// representation its frames are built in.
type watchSub struct {
	ch     chan watchEvent
	asJSON bool
}

// watchEvent is one queued broadcast: the snapshot and its frame in the
// subscriber's representation.
type watchEvent struct {
	*snapshot
	frame []byte
}

// watchHub is the per-pipeline broadcast registry. All channel sends
// and closes happen under mu, so a send can never race a close.
//
// The tick path never pays for fan-out: broadcast appends the snapshot
// to an ordered backlog and signals the hub's dispatcher goroutine,
// which builds the frames and performs the per-subscriber enqueues. A
// tick therefore costs O(1) in the scheduler no matter how many
// watchers are attached.
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

// subscribe registers a new subscriber with the given queue depth,
// receiving frames of the XML or the JSON representation. It returns
// nil when the hub is already closed (pipeline deregistered).
func (h *watchHub) subscribe(queue int, asJSON bool) *watchSub {
	if queue < 1 {
		queue = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	sub := &watchSub{ch: make(chan watchEvent, queue), asJSON: asJSON}
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

// dispatch drains the backlog in order, framing each snapshot in the
// representations its subscribers need and fanning it out. Frames are
// built outside the lock, so a broadcast never waits on one; a
// subscriber that joins meanwhile gets no frame for that snapshot,
// which is safe: it starts from the current snapshot (or the log), at
// or past it. The dispatcher exits when the hub closes.
func (h *watchHub) dispatch() {
	for {
		h.mu.Lock()
		if h.closed {
			h.pending = nil
			h.mu.Unlock()
			return
		}
		if len(h.pending) == 0 {
			h.pending = nil
			h.mu.Unlock()
			<-h.wake
			continue
		}
		sn := h.pending[0]
		h.pending[0] = nil
		h.pending = h.pending[1:]
		var need [2]bool // [xml, json]
		for sub := range h.subs {
			need[b2i(sub.asJSON)] = true
		}
		h.mu.Unlock()
		var frames [2][]byte
		for i, ok := range need {
			if ok {
				frames[i] = sn.sseFrame(i == 1)
			}
		}
		h.mu.Lock()
		h.fanoutLocked(sn, frames)
		h.mu.Unlock()
	}
}

// b2i indexes the [xml, json] representation pairs.
func b2i(asJSON bool) int {
	if asJSON {
		return 1
	}
	return 0
}

// fanoutLocked offers sn with its frame to every subscriber without
// blocking: when a queue is full the oldest pending event is dropped
// (counted) so the subscriber coalesces onto the newest state.
// Subscribers whose representation has no frame joined after the
// frames were chosen and are skipped. Called with h.mu held.
func (h *watchHub) fanoutLocked(sn *snapshot, frames [2][]byte) {
	for sub := range h.subs {
		ev := watchEvent{sn, frames[b2i(sub.asJSON)]}
		if ev.frame == nil {
			continue
		}
		select {
		case sub.ch <- ev:
			continue
		default:
		}
		select {
		case <-sub.ch:
			h.dropped++
		default:
		}
		select {
		case sub.ch <- ev:
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

	sub := ps.deliver.hub.subscribe(s.cfg.watchQueue, asJSON)
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
	// is a no-op: the subscriber has not seen its content. A cursor past
	// the head (one issued before a restart without a store) is a gap
	// too: the current version follows the gap frame, then live events.
	var lastVer uint64
	replaying, gapNext := false, false
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
		if head := ps.deliver.head(); lastVer > head {
			lastVer, gapNext = max(head, 1)-1, true
		}
		recs, err := ps.deliver.since(lastVer, 0)
		if err != nil {
			closeEvent(err.Error())
			return
		}
		for _, rec := range recs {
			gap := gapNext || rec.Version > lastVer+1
			gapNext = false
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

	heartbeat := s.cfg.clock.NewTimer(watchHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case ev, ok := <-sub.ch:
			if !ok {
				// Hub closed: wrapper deleted or registration torn down.
				closeEvent("deregistered")
				return
			}
			if ev.ver <= lastVer {
				continue
			}
			if gapNext {
				fmt.Fprintf(w, "event: gap\ndata: %d\n\n", ev.ver)
				gapNext = false
			}
			lastVer = ev.ver
			w.Write(ev.frame)
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			closeEvent("shutting down")
			return
		case <-heartbeat.C():
			fmt.Fprintf(w, ": ping\n\n")
			fl.Flush()
			heartbeat.Reset(watchHeartbeat)
		}
	}
}
