package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"repro/bench/upstream"
)

// newClient returns an HTTP client that never rewrites what the
// benchmark asks for: no transparent gzip, bounded idle pool.
func newClient(maxConns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		DisableCompression:  true,
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: max(maxConns, 2),
	}}
}

// frame is one SSE result event as a subscriber saw it.
type frame struct {
	gen  int       // page version stamped in the payload (-1: none)
	id   uint64    // delivery version (SSE id)
	at   time.Time // when the terminating blank line was parsed
	hash uint64    // fnv64a of the payload
}

// watcher is one SSE subscriber of one wrapper.
type watcher struct {
	name, url string

	// Written by the reader goroutine; read them only after stop.
	frames []frame
	err    error

	first  chan struct{} // closed when the initial frame arrived
	done   chan struct{}
	cancel context.CancelFunc
}

// startWatcher subscribes to name's change feed and returns once the
// initial-state frame has been received.
func startWatcher(client *http.Client, base, name, url string) (*watcher, error) {
	ctx, cancel := context.WithCancel(context.Background())
	w := &watcher{name: name, url: url, first: make(chan struct{}), done: make(chan struct{}), cancel: cancel}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/wrappers/"+name+"/watch", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch %s: status %d", name, resp.StatusCode)
	}
	go w.read(resp.Body)
	select {
	case <-w.first:
		return w, nil
	case <-w.done:
		return nil, fmt.Errorf("watch %s: stream ended before the first frame: %v", name, w.err)
	case <-time.After(10 * time.Second):
		w.stop()
		return nil, fmt.Errorf("watch %s: no initial frame", name)
	}
}

// read parses the event stream until it ends.
func (w *watcher) read(body io.ReadCloser) {
	defer close(w.done)
	defer body.Close()
	br := bufio.NewReaderSize(body, 64<<10)
	var (
		event  string
		cur    frame
		h      = fnvOffset
		lines  int
		gotOne bool
	)
	reset := func() { event, cur, h, lines = "", frame{gen: -1}, fnvOffset, 0 }
	reset()
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if err != io.EOF && !errors.Is(err, context.Canceled) {
				w.err = err
			}
			return
		}
		line = line[:len(line)-1]
		switch {
		case len(line) == 0:
			if event == "result" && lines > 0 {
				cur.at, cur.hash = time.Now(), uint64(h)
				w.frames = append(w.frames, cur)
				if !gotOne {
					gotOne = true
					close(w.first)
				}
			}
			reset()
		case bytes.HasPrefix(line, []byte("data: ")):
			data := line[len("data: "):]
			if lines > 0 {
				h = h.write([]byte{'\n'})
			}
			h = h.write(data)
			lines++
			if g := upstream.StampOf(data); g > cur.gen {
				cur.gen = g
			}
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("id: ")):
			cur.id, _ = strconv.ParseUint(string(line[len("id: "):]), 10, 64)
		}
	}
}

// stop ends the subscription and waits for the reader.
func (w *watcher) stop() {
	w.cancel()
	<-w.done
}

// ---------------------------------------------------------------------

// Read kinds of the poller's request mix.
const (
	readConditional = iota // XML with If-None-Match
	readXML                // unconditional XML
	readJSONGzip           // Accept: application/json + gzip
)

// readSample is one poller request. at is the instant the request was
// due, and lat runs from that instant, so a stalled server delays —
// and is charged for — the requests queued behind the stall.
type readSample struct {
	timed
	kind   int
	status int
	lag    time.Duration // how late the generator sent it
}

// poller is the open-loop reader: one keep-alive connection,
// round-robin over the wrappers, requests due at Poisson instants
// (independent users) with mean spacing period. A fixed period would
// hold one phase against the scheduler's ticks for a whole run and make
// runs differ by whichever phase they drew.
type poller struct {
	client *http.Client
	base   string
	names  []string
	period time.Duration
	rng    *rand.Rand

	// Results; read them only after stop.
	samples []readSample
	failed  int

	stopCh chan struct{}
	done   chan struct{}
}

func startPoller(client *http.Client, base string, names []string, period time.Duration, seed uint64) *poller {
	p := &poller{client: client, base: base, names: names, period: period,
		rng:    rand.New(rand.NewPCG(seed, 0x706f6c6c)),
		stopCh: make(chan struct{}), done: make(chan struct{})}
	go p.run()
	return p
}

func (p *poller) run() {
	defer close(p.done)
	etags := make(map[string]string, len(p.names))
	due := time.Now()
	for k := 0; ; k++ {
		due = due.Add(time.Duration(p.rng.ExpFloat64() * float64(p.period)))
		if d := time.Until(due); d > 0 {
			select {
			case <-p.stopCh:
				return
			case <-time.After(d):
			}
		} else {
			select {
			case <-p.stopCh:
				return
			default:
			}
		}
		name := p.names[k%len(p.names)]
		kind := readXML
		switch {
		case k%20 == 19:
			kind = readJSONGzip
		case k%2 == 0 && etags[name] != "":
			kind = readConditional
		}
		req, err := http.NewRequest(http.MethodGet, p.base+"/"+name, nil)
		if err != nil {
			p.failed++
			continue
		}
		switch kind {
		case readConditional:
			req.Header.Set("If-None-Match", etags[name])
		case readJSONGzip:
			req.Header.Set("Accept", "application/json")
			req.Header.Set("Accept-Encoding", "gzip")
		}
		sent := time.Now()
		resp, err := p.client.Do(req)
		if err != nil {
			p.failed++
			continue
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		lat := time.Since(due)
		ok := err == nil && (resp.StatusCode == http.StatusOK ||
			(kind == readConditional && resp.StatusCode == http.StatusNotModified))
		if !ok {
			p.failed++
			continue
		}
		if kind != readJSONGzip {
			etags[name] = resp.Header.Get("ETag")
		}
		p.samples = append(p.samples, readSample{timed: timed{at: due, lat: lat}, kind: kind,
			status: resp.StatusCode, lag: sent.Sub(due)})
	}
}

func (p *poller) stop() {
	close(p.stopCh)
	<-p.done
}

// ---------------------------------------------------------------------

// control is the benchmark's control-plane client: registration,
// rescheduling, status and final reads over one keep-alive connection.
type control struct {
	client *http.Client
	base   string
}

func (c control) do(method, path string, body any, hdr map[string]string) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data, err
}

// register compiles and registers one catalogue wrapper.
func (c control) register(name, url string, interval time.Duration) error {
	resp, body, err := c.do(http.MethodPost, "/v1/wrappers", map[string]any{
		"name": name, "program": program(url), "interval_ms": interval.Milliseconds(),
		"root": designRoot, "auxiliary": designAux,
	}, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("register %s: status %d: %s", name, resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// oneshotLoop is the closed-loop control-plane client: register a
// fresh on-demand wrapper, extract from it extractsPerCycle times
// (the upstream page advances one version per call), read the latest
// result, delete the wrapper, repeat.
type oneshotLoop struct {
	ctl  control
	site *upstream.Site

	// Results; read them only after stop.
	registers []timed
	extracts  []timed // request → response
	delivery  []timed // upstream fetch → response held by the client
	reads     []timed
	sampled   []frame // every sampleEvery-th version's response hash
	failed    int
	gaps      int
	requests  int

	stopCh chan struct{}
	done   chan struct{}
}

const (
	extractsPerCycle = 20
	// sampleEvery picks the versions whose bytes are checked against
	// the reference after the window.
	sampleEvery = 16
)

func startOneshot(client *http.Client, base string, site *upstream.Site) *oneshotLoop {
	l := &oneshotLoop{ctl: control{client: client, base: base}, site: site,
		stopCh: make(chan struct{}), done: make(chan struct{})}
	go l.run()
	return l
}

func (l *oneshotLoop) stopped() bool {
	select {
	case <-l.stopCh:
		return true
	default:
		return false
	}
}

func (l *oneshotLoop) run() {
	defer close(l.done)
	lastGen := l.site.Version(oneshotURL)
	// observe records one extraction response (registration's first
	// extraction included): its page version must follow the previous
	// one, and its delivery latency runs from that version's fetch.
	observe := func(body []byte, at time.Time) {
		gen := upstream.StampOf(body)
		if gen != lastGen+1 {
			l.gaps++
		}
		lastGen = gen
		if t, ok := l.site.Stamp(oneshotURL, gen); ok {
			l.delivery = append(l.delivery, timed{at: at, lat: at.Sub(t)})
		}
		if gen%sampleEvery == 0 {
			l.sampled = append(l.sampled, frame{gen: gen, at: at, hash: payloadHash(body)})
		}
	}
	for cycle := 0; !l.stopped(); cycle++ {
		name := fmt.Sprintf("os%d", cycle)
		path := "/v1/wrappers/" + name
		t0 := time.Now()
		err := l.ctl.register(name, oneshotURL, 0)
		l.requests++
		if err != nil {
			l.failed++
			continue
		}
		now := time.Now()
		l.registers = append(l.registers, timed{at: now, lat: now.Sub(t0)})
		// The registration's own extraction consumed one page version.
		lastGen++
		for i := 0; i < extractsPerCycle; i++ {
			t0 = time.Now()
			resp, body, err := l.ctl.do(http.MethodPost, path+"/extract", struct{}{}, nil)
			now = time.Now()
			l.requests++
			if err != nil || resp.StatusCode != http.StatusOK {
				l.failed++
				continue
			}
			l.extracts = append(l.extracts, timed{at: now, lat: now.Sub(t0)})
			observe(body, now)
		}
		t0 = time.Now()
		resp, _, err := l.ctl.do(http.MethodGet, path+"/results", nil, nil)
		now = time.Now()
		l.requests++
		if err != nil || resp.StatusCode != http.StatusOK {
			l.failed++
		} else {
			l.reads = append(l.reads, timed{at: now, lat: now.Sub(t0)})
		}
		resp, _, err = l.ctl.do(http.MethodDelete, path, nil, nil)
		l.requests++
		if err != nil || resp.StatusCode != http.StatusNoContent {
			l.failed++
		}
	}
}

func (l *oneshotLoop) stop() {
	close(l.stopCh)
	<-l.done
}
