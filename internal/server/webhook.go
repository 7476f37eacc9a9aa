package server

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/resultlog"
)

// Outbound webhooks: push delivery for subscribers that cannot hold an
// SSE connection. Each registered endpoint gets its own dispatcher
// goroutine walking the wrapper's result sequence behind a durable
// cursor (the last delivered version): new snapshots are POSTed in
// order, failures retry with exponential backoff and jitter, and a
// run of failures past the attempt cap opens a circuit breaker that
// cools down before probing again. The cursor only ever advances past
// a version once that snapshot has been accepted (2xx), so delivery is
// at-least-once — a crash re-sends at most the redelivery window
// between cursor persists, never skips.
//
//	POST   /v1/wrappers/{name}/webhooks        register {"url": ...}
//	GET    /v1/wrappers/{name}/webhooks        list endpoints + cursors
//	GET    /v1/wrappers/{name}/webhooks/{id}   one endpoint's status
//	DELETE /v1/wrappers/{name}/webhooks/{id}   retire an endpoint

// A webhook dispatcher's schedule: the timeout of one POST, the
// exponential retry backoff's bounds, how many consecutive failures
// open the circuit breaker, and how long an open breaker cools down
// before its half-open probe.
const (
	hookTimeout     = 5 * time.Second
	hookBackoffMin  = 100 * time.Millisecond
	hookBackoffMax  = 30 * time.Second
	hookCooldown    = 30 * time.Second
	hookMaxAttempts = 6
)

// hookBatch bounds how many records one dispatcher pass reads from the
// delivery log.
const hookBatch = 16

// hookSaveDebounce coalesces cursor persists: an endpoint delivering a
// burst writes its sidecar once per window, not once per delivery.
// This is the redelivery window after a crash.
const hookSaveDebounce = 200 * time.Millisecond

// hookMeta is the persisted form of one endpoint (webhooks.json).
type hookMeta struct {
	ID     string `json:"id"`
	URL    string `json:"url"`
	Cursor uint64 `json:"cursor"`
	Secret string `json:"secret,omitempty"`
}

// hookEndpoint is one registered webhook and its dispatcher state.
type hookEndpoint struct {
	id     string
	url    string
	secret string // HMAC key for Lixto-Signature; empty = unsigned
	hs     *hookSet
	notify chan struct{} // buffered(1): new results may be available
	done   chan struct{} // closed to stop the dispatcher

	mu           sync.Mutex
	cursor       uint64 // last delivered (or skipped-noop) version
	state        string // "idle" | "delivering" | "retrying" | "open"
	attempts     int    // consecutive failures on the current record
	deliveries   uint64
	failures     uint64
	retries      uint64
	opens        uint64
	lastErr      string
	lastDelivery time.Time
}

// hookInfo is an endpoint's JSON rendering in the /v1 responses.
type hookInfo struct {
	ID     string `json:"id"`
	URL    string `json:"url"`
	Cursor uint64 `json:"cursor"`
	// Signed reports that deliveries carry a Lixto-Signature HMAC header
	// (the secret itself is never echoed back).
	Signed       bool   `json:"signed,omitempty"`
	State        string `json:"state"`
	Deliveries   uint64 `json:"deliveries"`
	Failures     uint64 `json:"failures"`
	Retries      uint64 `json:"retries"`
	BreakerOpens uint64 `json:"breaker_opens"`
	LastError    string `json:"last_error,omitempty"`
	LastDelivery string `json:"last_delivery,omitempty"`
}

func (e *hookEndpoint) info() hookInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	info := hookInfo{
		ID: e.id, URL: e.url, Cursor: e.cursor, Signed: e.secret != "", State: e.state,
		Deliveries: e.deliveries, Failures: e.failures, Retries: e.retries,
		BreakerOpens: e.opens, LastError: e.lastErr,
	}
	if !e.lastDelivery.IsZero() {
		info.LastDelivery = e.lastDelivery.UTC().Format(time.RFC3339Nano)
	}
	return info
}

// hookSet is a pipeline's webhook registry. Zero value is inert until
// init wires it to its server and pipeline.
type hookSet struct {
	s  *Server
	ps *pipeState

	mu        sync.Mutex
	endpoints map[string]*hookEndpoint
	nextID    int
	closed    bool
	saveTimer timer // debounced cursor persist
}

func (hs *hookSet) init(s *Server, ps *pipeState) {
	hs.s = s
	hs.ps = ps
}

// notify nudges every dispatcher; called from the publish path, so it
// must never block (channels are buffered and the send is dropped when
// a nudge is already pending).
func (hs *hookSet) notify() {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	for _, e := range hs.endpoints {
		select {
		case e.notify <- struct{}{}:
		default:
		}
	}
}

// add registers an endpoint and starts its dispatcher. cursor is the
// version to resume after (deliveries start at cursor+1); a non-empty
// secret makes every delivery carry a Lixto-Signature HMAC header.
func (hs *hookSet) add(id, rawurl string, cursor uint64, secret string) (*hookEndpoint, error) {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	if hs.closed {
		return nil, errShuttingDown
	}
	if len(hs.endpoints) >= maxHooksPerWrapper {
		return nil, fmt.Errorf("webhook limit of %d per wrapper reached", maxHooksPerWrapper)
	}
	if id == "" {
		hs.nextID++
		id = "h" + strconv.Itoa(hs.nextID)
	} else if n, err := strconv.Atoi(strings.TrimPrefix(id, "h")); err == nil && n > hs.nextID {
		hs.nextID = n // restored ids keep the counter ahead
	}
	if _, dup := hs.endpoints[id]; dup {
		return nil, fmt.Errorf("duplicate webhook id %q", id)
	}
	e := &hookEndpoint{
		id: id, url: rawurl, secret: secret, hs: hs,
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
		cursor: cursor,
		state:  "idle",
	}
	if hs.endpoints == nil {
		hs.endpoints = map[string]*hookEndpoint{}
	}
	hs.endpoints[id] = e
	go e.run()
	return e, nil
}

// remove retires one endpoint: its dispatcher stops and the sidecar is
// rewritten without it.
func (hs *hookSet) remove(id string) bool {
	hs.mu.Lock()
	e := hs.endpoints[id]
	if e != nil {
		delete(hs.endpoints, id)
	}
	hs.mu.Unlock()
	if e == nil {
		return false
	}
	close(e.done)
	hs.save()
	return true
}

// close stops every dispatcher and persists final cursors. Signal-only
// (it does not join the goroutines): it is called with server locks
// held on deregistration and drain. A set without endpoints writes
// nothing: remove saved the empty list when the last one went, and
// restore reads a missing file as none.
func (hs *hookSet) close() {
	hs.mu.Lock()
	if hs.closed {
		hs.mu.Unlock()
		return
	}
	hs.closed = true
	if hs.saveTimer != nil {
		hs.saveTimer.Stop()
		hs.saveTimer = nil
	}
	endpoints := make([]*hookEndpoint, 0, len(hs.endpoints))
	for _, e := range hs.endpoints {
		endpoints = append(endpoints, e)
	}
	hs.mu.Unlock()
	for _, e := range endpoints {
		close(e.done)
	}
	if len(endpoints) > 0 {
		hs.persistNow(false)
	}
}

// list returns the endpoints sorted by id.
func (hs *hookSet) list() []*hookEndpoint {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	out := make([]*hookEndpoint, 0, len(hs.endpoints))
	for _, e := range hs.endpoints {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func (hs *hookSet) get(id string) *hookEndpoint {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hs.endpoints[id]
}

// scheduleSave debounces a cursor persist.
func (hs *hookSet) scheduleSave() {
	if hs.s.cfg.ResultStore == nil {
		return
	}
	hs.mu.Lock()
	defer hs.mu.Unlock()
	if hs.closed || hs.saveTimer != nil {
		return
	}
	hs.saveTimer = hs.s.cfg.clock.AfterFunc(hookSaveDebounce, func() {
		hs.mu.Lock()
		hs.saveTimer = nil
		hs.mu.Unlock()
		hs.persistNow(true)
	})
}

// save persists the registration set immediately (registration
// changes, shutdown).
func (hs *hookSet) save() { hs.persistNow(true) }

// persistNow writes webhooks.json. checkClosed skips the write once
// the set closed (a deregistered wrapper's store dir is being
// removed; recreating it would leak).
func (hs *hookSet) persistNow(checkClosed bool) {
	store := hs.s.cfg.ResultStore
	if store == nil {
		return
	}
	hs.mu.Lock()
	if checkClosed && hs.closed {
		hs.mu.Unlock()
		return
	}
	metas := make([]hookMeta, 0, len(hs.endpoints))
	for _, e := range hs.endpoints {
		e.mu.Lock()
		metas = append(metas, hookMeta{ID: e.id, URL: e.url, Cursor: e.cursor, Secret: e.secret})
		e.mu.Unlock()
	}
	hs.mu.Unlock()
	sort.Slice(metas, func(i, j int) bool { return metas[i].ID < metas[j].ID })
	if err := store.SaveMeta(hs.ps.name, hooksFile, metas); err != nil {
		hs.s.cfg.Logf("server: webhook persist for %q: %v", hs.ps.name, err)
	}
}

// restore reloads the persisted endpoints and restarts their
// dispatchers from the durable cursors.
func (hs *hookSet) restore() error {
	store := hs.s.cfg.ResultStore
	if store == nil {
		return nil
	}
	var metas []hookMeta
	if err := store.LoadMeta(hs.ps.name, hooksFile, &metas); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, m := range metas {
		if _, err := hs.add(m.ID, m.URL, m.Cursor, m.Secret); err != nil {
			return err
		}
	}
	return nil
}

// run is the per-endpoint dispatcher goroutine. It reads the delivery
// log after its cursor, POSTs each snapshot record, and steps over
// no-op records. A record past the cursor + 1 follows versions the log
// no longer holds: it is POSTed even if it is a no-op (the endpoint has
// not seen its content), carrying that version as Lixto-Gap. A failed
// log read backs off and retries like a failed POST.
func (e *hookEndpoint) run() {
	client := &http.Client{Timeout: hookTimeout}
	readFailures := 0
	for {
		e.mu.Lock()
		cursor := e.cursor
		e.mu.Unlock()
		recs, err := e.hs.ps.deliver.since(cursor, hookBatch)
		if err != nil {
			readFailures++
			e.mu.Lock()
			e.state, e.lastErr = "retrying", err.Error()
			e.mu.Unlock()
			if !sleep(e.hs.s.cfg.clock, backoffDelay(hookBackoffMin, hookBackoffMax, readFailures), e.done) {
				return
			}
			continue
		}
		readFailures = 0
		if len(recs) == 0 {
			e.setState("idle")
			select {
			case <-e.notify:
				continue
			case <-e.done:
				return
			}
		}
		for _, rec := range recs {
			var gap uint64
			if rec.Version > cursor+1 {
				gap = rec.Version
			}
			cursor = rec.Version
			if gap == 0 && rec.Kind == resultlog.KindNoop {
				e.advance(rec.Version)
				continue
			}
			if !e.deliverOne(client, rec, gap) {
				return // stopped
			}
		}
	}
}

// deliverOne POSTs one snapshot until it is accepted, backing off on
// failure and opening the breaker past the attempt cap. It never
// skips: at-least-once means a dead endpoint blocks its own cursor,
// not that versions vanish. Returns false when the dispatcher should
// stop; a retired endpoint starts no POST once its removal returned.
func (e *hookEndpoint) deliverOne(client *http.Client, rec resultlog.Record, gap uint64) bool {
	clk := e.hs.s.cfg.clock
	for {
		select {
		case <-e.done:
			return false
		default:
		}
		err := e.post(client, rec, gap)
		if err == nil {
			e.mu.Lock()
			e.deliveries++
			e.attempts = 0
			e.state = "delivering"
			e.lastErr = ""
			e.lastDelivery = clk.Now()
			e.mu.Unlock()
			e.advance(rec.Version)
			return true
		}
		e.mu.Lock()
		e.failures++
		e.attempts++
		attempts := e.attempts
		e.lastErr = err.Error()
		e.mu.Unlock()
		var wait time.Duration
		if attempts >= hookMaxAttempts {
			// Breaker opens: cool down, then the loop's next pass is the
			// half-open probe. The cursor stays put.
			e.mu.Lock()
			e.state = "open"
			e.opens++
			e.attempts = hookMaxAttempts - 1
			e.mu.Unlock()
			wait = hookCooldown
		} else {
			e.setState("retrying")
			e.mu.Lock()
			e.retries++
			e.mu.Unlock()
			wait = backoffDelay(hookBackoffMin, hookBackoffMax, attempts)
		}
		if !sleep(clk, wait, e.done) {
			return false
		}
	}
}

// backoffDelay is exponential backoff with full jitter: min·2^(n-1)
// capped at max, scaled by a random factor in [0.5, 1.0] so a fleet of
// endpoints retrying against one dead sink decorrelates.
func backoffDelay(min, max time.Duration, attempt int) time.Duration {
	d := min << (attempt - 1)
	if d > max || d <= 0 {
		d = max
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// post delivers one record, flagged with Lixto-Gap when gap is nonzero.
// Any 2xx is acceptance; anything else (or a transport error, or the
// timeout) is a retryable failure.
func (e *hookEndpoint) post(client *http.Client, rec resultlog.Record, gap uint64) error {
	req, err := http.NewRequest(http.MethodPost, e.url, bytes.NewReader(rec.XML))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/xml; charset=utf-8")
	req.Header.Set("Lixto-Wrapper", e.hs.ps.name)
	req.Header.Set("Lixto-Version", strconv.FormatUint(rec.Version, 10))
	req.Header.Set("Lixto-Webhook", e.id)
	if gap > 0 {
		req.Header.Set("Lixto-Gap", strconv.FormatUint(gap, 10))
	}
	if e.secret != "" {
		req.Header.Set("Lixto-Signature", SignPayload(e.secret, rec.XML))
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("endpoint returned %s", resp.Status)
	}
	return nil
}

// SignPayload computes the Lixto-Signature header value for a webhook
// delivery body: "sha256=" + hex(HMAC-SHA256(secret, body)). Receivers
// recompute it over the raw request body and compare with
// VerifySignature.
func SignPayload(secret string, body []byte) string {
	mac := hmac.New(sha256.New, []byte(secret))
	mac.Write(body)
	return "sha256=" + hex.EncodeToString(mac.Sum(nil))
}

// VerifySignature checks a received Lixto-Signature header against the
// raw request body in constant time.
func VerifySignature(secret string, body []byte, header string) bool {
	return hmac.Equal([]byte(SignPayload(secret, body)), []byte(header))
}

// advance moves the cursor monotonically and schedules its persist.
func (e *hookEndpoint) advance(version uint64) {
	e.mu.Lock()
	if version > e.cursor {
		e.cursor = version
	}
	e.mu.Unlock()
	e.hs.scheduleSave()
}

func (e *hookEndpoint) setState(state string) {
	e.mu.Lock()
	e.state = state
	e.mu.Unlock()
}

// ---------------------------------------------------------------------
// Stats.

// WebhookStatus aggregates the webhook counters across all pipelines;
// the "webhooks" block on /statusz and GET /v1/wrappers.
type WebhookStatus struct {
	// Endpoints is the number of registered webhook endpoints;
	// BreakerOpen of them are currently cooling down after exhausting
	// their attempts.
	Endpoints   int `json:"endpoints"`
	BreakerOpen int `json:"breaker_open"`
	// Deliveries counts accepted POSTs; Failures counts rejected or
	// timed-out attempts; Retries counts backoff waits; BreakerOpens
	// counts circuit-breaker trips.
	Deliveries   uint64 `json:"deliveries"`
	Failures     uint64 `json:"failures"`
	Retries      uint64 `json:"retries"`
	BreakerOpens uint64 `json:"breaker_opens"`
}

// WebhookStatus returns the webhook counters summed over the currently
// registered pipelines.
func (s *Server) WebhookStatus() WebhookStatus {
	var ws WebhookStatus
	s.readPipes.Range(func(_, v any) bool {
		ps := v.(*pipeState)
		for _, e := range ps.hooks.list() {
			e.mu.Lock()
			ws.Endpoints++
			if e.state == "open" {
				ws.BreakerOpen++
			}
			ws.Deliveries += e.deliveries
			ws.Failures += e.failures
			ws.Retries += e.retries
			ws.BreakerOpens += e.opens
			e.mu.Unlock()
		}
		return true
	})
	return ws
}

// hookCount returns the number of registered endpoints (wrapperInfo).
func (hs *hookSet) count() int {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return len(hs.endpoints)
}

// ---------------------------------------------------------------------
// HTTP handlers.

// webhookSpec is the POST .../webhooks body.
type webhookSpec struct {
	// URL receives each new snapshot as an XML POST.
	URL string `json:"url"`
	// Since, when set, starts delivery after this version (0 replays
	// everything still retained); it may not exceed the current
	// version. Absent means "from now": only results newer than the
	// current version are delivered.
	Since *uint64 `json:"since,omitempty"`
	// Secret, when set, signs every delivery: the endpoint receives a
	// Lixto-Signature header of "sha256=" + hex(HMAC-SHA256(secret,
	// body)). The secret persists with the registration but is never
	// echoed in listings.
	Secret string `json:"secret,omitempty"`
}

func (s *Server) v1Webhooks(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ps := s.readPipe(name)
	if ps == nil {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no wrapper %q", name), nil)
		return
	}
	switch r.Method {
	case http.MethodGet:
		infos := make([]hookInfo, 0)
		for _, e := range ps.hooks.list() {
			infos = append(infos, e.info())
		}
		writeJSON(w, http.StatusOK, map[string]any{"name": name, "webhooks": infos})
	case http.MethodPost:
		var spec webhookSpec
		if !s.decodeJSON(w, r, &spec) {
			return
		}
		u, err := url.Parse(spec.URL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("url must be absolute http(s), got %q", spec.URL), nil)
			return
		}
		cursor := ps.deliver.head()
		if spec.Since != nil {
			if *spec.Since > cursor {
				// A cursor past the head would wait for versions that
				// may never come, skipping every one until then.
				writeError(w, http.StatusBadRequest, "bad_request",
					fmt.Sprintf("since %d is ahead of the current version %d", *spec.Since, cursor), nil)
				return
			}
			cursor = *spec.Since
		}
		e, err := ps.hooks.add("", spec.URL, cursor, spec.Secret)
		if err != nil {
			if errors.Is(err, errShuttingDown) {
				writeError(w, http.StatusServiceUnavailable, "unavailable", err.Error(), nil)
			} else {
				writeError(w, http.StatusUnprocessableEntity, "bad_request", err.Error(), nil)
			}
			return
		}
		ps.hooks.save()
		writeJSON(w, http.StatusCreated, e.info())
	default:
		methodNotAllowed(w, "GET, POST")
	}
}

func (s *Server) v1Webhook(w http.ResponseWriter, r *http.Request) {
	name, id := r.PathValue("name"), r.PathValue("id")
	ps := s.readPipe(name)
	if ps == nil {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no wrapper %q", name), nil)
		return
	}
	switch r.Method {
	case http.MethodGet:
		e := ps.hooks.get(id)
		if e == nil {
			writeError(w, http.StatusNotFound, "not_found",
				fmt.Sprintf("no webhook %q on wrapper %q", id, name), nil)
			return
		}
		writeJSON(w, http.StatusOK, e.info())
	case http.MethodDelete:
		if !ps.hooks.remove(id) {
			writeError(w, http.StatusNotFound, "not_found",
				fmt.Sprintf("no webhook %q on wrapper %q", id, name), nil)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		methodNotAllowed(w, "GET, DELETE")
	}
}
