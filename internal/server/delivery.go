package server

import (
	"bytes"
	"compress/gzip"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/transform"
	"repro/internal/xmlenc"
)

// The delivery plane: every pipeline result is encoded exactly once,
// published as an immutable snapshot behind an atomic pointer, and
// served to any number of readers without touching the server-wide
// mutex. A snapshot carries the pre-encoded XML (eager — the XML bytes
// double as the change detector), JSON, gzipped and SSE-framed
// variants (lazy, each built at most once), and per-variant strong
// ETags, so the read path is: one sync.Map lookup, one atomic load,
// one header compare, one Write.
//
// Publication happens at tick-commit time (pipeState.tickOnce) and
// self-heals on read: a handler that observes a collector version
// ahead of the current snapshot republishes under the pipeline's own
// publish mutex. No-op ticks are suppressed before fan-out: the
// poll-level fingerprint cache re-emits the previous *xmlenc.Node when
// no source page changed (pointer equality — the dom.Fingerprint delta
// detection), and a fresh document object with byte-identical encoding
// is caught by comparing the encoded XML.

// gzipMinSize is the smallest body worth compressing; below it the
// gzip header overhead usually wins.
const gzipMinSize = 256

// snapshot is one immutable published result. The version field is the
// only mutable slot: the publisher bumps it forward (under pubMu) when
// the same content is re-delivered, so readers keep fast-pathing.
type snapshot struct {
	doc *xmlenc.Node
	seq uint64 // publish sequence
	// ver is the delivery version at which this content first appeared:
	// the SSE event id, and the cursor subscribers resume from. Unlike
	// the version slot below it never moves.
	ver     uint64
	version atomic.Uint64

	xml    []byte // eager: encoded at publish, reused by every reader
	xmlSum uint64 // FNV-1a of xml: the ETag's digits and the WAL record's fingerprint
	xmlTag string

	jsonOnce sync.Once
	json     []byte
	jsonTag  string
	jsonErr  error

	gzOnce [2]sync.Once // [xml, json]
	gz     [2][]byte

	sseOnce [2]sync.Once // [xml, json]
	sse     [2][]byte
}

func newSnapshot(doc *xmlenc.Node, version, seq uint64) *snapshot {
	return newSnapshotEnc(nil, doc, version, seq)
}

// newSnapshotEnc is newSnapshot encoding through the pipeline's splice
// encoder when one is present (nil falls back to the stateless
// encoder). The encoder caches encoded byte ranges per frozen subtree,
// so re-encoding a document that shares most of its subtrees with the
// previous snapshot splices the unchanged ranges instead of walking
// them; output — and therefore the ETag — is byte-identical either
// way. Callers must hold the pipeline's publish mutex when enc is
// non-nil (the encoder is single-writer state).
func newSnapshotEnc(enc *xmlenc.Encoder, doc *xmlenc.Node, version, seq uint64) *snapshot {
	sn := &snapshot{doc: doc, seq: seq, ver: version}
	sn.version.Store(version)
	if enc != nil {
		sn.setXML(enc.MarshalIndentBytes(doc))
	} else {
		sn.setXML(xmlenc.MarshalIndentBytes(doc))
	}
	return sn
}

// setXML installs the encoded XML with its hash, taken once here and
// reused for the ETag and for the result log's record fingerprint.
func (sn *snapshot) setXML(xml []byte) {
	sn.xml = xml
	sn.xmlSum = fnv64a(xml)
	sn.xmlTag = etagOf(sn.xmlSum, 'x')
}

// fnv64a is FNV-1a, 64 bits, as hash/fnv computes it, without the
// hash.Hash64 allocation.
func fnv64a(b []byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, c := range b {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}

// etagOf derives a strong ETag from the FNV-1a fingerprint of the
// encoded bytes plus a representation marker (XML and JSON variants of
// one document must never share an ETag): "<16 hex digits>-<kind>",
// quoted.
func etagOf(sum uint64, kind byte) string {
	const hex = "0123456789abcdef"
	var tag [20]byte
	tag[0], tag[17], tag[18], tag[19] = '"', '-', kind, '"'
	for i := 16; i >= 1; i-- {
		tag[i] = hex[sum&0xf]
		sum >>= 4
	}
	return string(tag[:])
}

// variantJSON returns the JSON encoding, built on first use.
func (sn *snapshot) variantJSON() ([]byte, string, error) {
	sn.jsonOnce.Do(func() {
		data, err := xmlenc.MarshalJSONIndent(sn.doc)
		if err != nil {
			sn.jsonErr = err
			return
		}
		sn.json = data
		sn.jsonTag = etagOf(fnv64a(data), 'j')
	})
	return sn.json, sn.jsonTag, sn.jsonErr
}

// gzipWriters recycles compressors across snapshots: a fresh BestSpeed
// writer allocates ~1.2 MB of flate state, Reset reuses it and produces
// the same bytes.
var gzipWriters = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed) // the level is valid
	return zw
}}

// gzipped returns the precompressed variant, or nil when compression
// does not pay (small or incompressible bodies are served identity).
func (sn *snapshot) gzipped(asJSON bool) []byte {
	i := 0
	if asJSON {
		i = 1
	}
	sn.gzOnce[i].Do(func() {
		var body []byte
		if asJSON {
			body, _, _ = sn.variantJSON()
		} else {
			body = sn.xml
		}
		if len(body) < gzipMinSize {
			return
		}
		var buf bytes.Buffer
		zw := gzipWriters.Get().(*gzip.Writer)
		defer gzipWriters.Put(zw)
		zw.Reset(&buf)
		if _, err := zw.Write(body); err != nil {
			return
		}
		if err := zw.Close(); err != nil {
			return
		}
		if buf.Len() < len(body) {
			sn.gz[i] = buf.Bytes()
		}
	})
	return sn.gz[i]
}

// sseFrame returns the complete SSE event bytes for this snapshot —
// "event: result", the delivery version as the event id (the cursor a
// reconnecting subscriber hands back via Last-Event-ID), and the
// encoded document as data lines. Built once per representation and
// written verbatim to every subscriber.
func (sn *snapshot) sseFrame(asJSON bool) []byte {
	i := 0
	if asJSON {
		i = 1
	}
	sn.sseOnce[i].Do(func() {
		payload := sn.xml
		if asJSON {
			body, _, err := sn.variantJSON()
			if err != nil {
				body = []byte(`{"error":"encoding failure"}`)
			}
			payload = body
		}
		sn.sse[i] = sseFrameFor(payload, sn.ver)
	})
	return sn.sse[i]
}

// sseFrameFor frames one payload as a complete "event: result" SSE event
// with the delivery version as the id. Shared by the cached snapshot
// frames and the ad-hoc frames built during Last-Event-ID replay.
func sseFrameFor(payload []byte, ver uint64) []byte {
	payload = bytes.TrimRight(payload, "\n")
	b := make([]byte, 0, len(payload)+6*(bytes.Count(payload, []byte{'\n'})+1)+48)
	b = append(b, "event: result\nid: "...)
	b = strconv.AppendUint(b, ver, 10)
	b = append(b, '\n')
	for {
		i := bytes.IndexByte(payload, '\n')
		b = append(b, "data: "...)
		if i < 0 {
			b = append(b, payload...)
			break
		}
		b = append(b, payload[:i+1]...)
		payload = payload[i+1:]
	}
	return append(b, "\n\n"...)
}

// ---------------------------------------------------------------------

// histKey distinguishes the cached encodings of the history list: the
// requested depth, the representation, and which route built it (the
// legacy /{name}/history root element differs from /v1 .../results).
type histKey struct {
	n    int
	json bool
	v1   bool
}

// maxHistCacheEntries bounds the per-pipeline history cache; clients
// choose n freely, so past the bound requests are built uncached.
const maxHistCacheEntries = 32

// delivery is the per-pipeline delivery state: the current snapshot,
// the publish lock (serializing writers only — readers never take it
// in steady state), the watch hub, and the read-path counters.
type delivery struct {
	cur   atomic.Pointer[snapshot]
	pubMu sync.Mutex
	seq   atomic.Uint64 // snapshots published (fan-outs + encodes)

	hub watchHub

	// persist, when set, is the pipeline's WAL attachment (persist.go):
	// publish drains its journal queue so every delivery reaches the
	// result log, reusing the just-encoded snapshot bytes. hooks, when
	// set, is the pipeline's outbound webhook set; publish nudges its
	// dispatchers after the log advances.
	persist *pipePersist
	hooks   *hookSet

	suppressed atomic.Uint64 // no-op ticks caught before fan-out
	etagHits   atomic.Uint64 // conditional GETs answered 304
	etagMisses atomic.Uint64 // conditional GETs that had to send the body

	// enc is the pipeline's splice encoder (see xmlenc.Encoder), built
	// on first publish and used only under pubMu.
	enc *xmlenc.Encoder

	histMu      sync.Mutex
	histVersion uint64
	hist        map[histKey][]byte
}

// snapshot returns the current snapshot for out, publishing a new one
// if the collector has delivered since. The steady-state path is
// lock-free: one atomic pointer load plus one atomic version compare.
// Pending journal entries force the publish path so a delivery is
// durably logged before its HTTP acknowledgement is written.
func (d *delivery) snapshot(out *transform.Collector) *snapshot {
	if cur := d.cur.Load(); cur != nil && cur.version.Load() == out.Version() &&
		(d.persist == nil || d.persist.idle()) {
		return cur
	}
	return d.publish(out)
}

// publish encodes and swaps in a new snapshot under the pipeline's
// publish mutex, then fans it out to the watch hub. Re-deliveries of
// unchanged content (same document pointer, or byte-identical
// encoding) bump the current snapshot's version instead: no re-encode,
// no fan-out, one suppressed no-op tick counted. Either way the WAL
// journal drains before returning, so the caller's delivery is on disk
// (as a snapshot or a version-only no-op record) when it is
// acknowledged.
func (d *delivery) publish(out *transform.Collector) *snapshot {
	d.pubMu.Lock()
	defer d.pubMu.Unlock()
	// Read the version before the document: if a delivery races in
	// between, the recorded version is behind and the next read
	// republishes — stale is recoverable, "fresher than recorded" is
	// not.
	v := out.Version()
	cur := d.cur.Load()
	sn := cur
	doc := out.Latest()
	switch {
	case cur != nil && cur.version.Load() >= v:
		// Already current; fall through to the journal drain only.
	case doc == nil, v == 0:
		// No delivery yet — or a reader raced the very first one and
		// loaded the version before the collector committed it (a
		// document existing at all implies version >= 1). Publishing
		// here would broadcast an SSE frame with id 0; the delivering
		// tick's own snapshot call follows with the real version.
	case cur != nil && cur.doc == doc:
		// The poll-level fingerprint cache re-emitted the previous
		// document: nothing changed upstream.
		cur.version.Store(v)
		d.suppressed.Add(1)
	default:
		if d.enc == nil {
			d.enc = xmlenc.NewEncoder()
		}
		fresh := newSnapshotEnc(d.enc, doc, v, d.seq.Load()+1)
		if cur != nil && bytes.Equal(fresh.xml, cur.xml) {
			// Fresh document object, identical content.
			cur.version.Store(v)
			d.suppressed.Add(1)
		} else {
			d.seq.Add(1)
			d.cur.Store(fresh)
			d.hub.broadcast(fresh)
			sn = fresh
		}
	}
	if d.persist != nil && !d.persist.idle() {
		d.persist.drain(sn)
		if d.hooks != nil {
			d.hooks.notify()
		}
	} else if d.hooks != nil && sn != cur {
		d.hooks.notify()
	}
	return sn
}

// splicedBytes reports the cumulative snapshot bytes this pipeline's
// splice encoder reused from its cache instead of re-encoding (0 when
// splicing is disabled or nothing has been published). Takes the
// publish mutex briefly; called from the status path only.
func (d *delivery) splicedBytes() uint64 {
	d.pubMu.Lock()
	defer d.pubMu.Unlock()
	if d.enc == nil {
		return 0
	}
	return d.enc.SplicedBytes()
}

// history serves the encoded history list from the per-pipeline cache,
// rebuilding via build only when the collector has delivered since the
// cached encoding (or the key is not cached yet).
func (d *delivery) history(out *transform.Collector, key histKey, build func() ([]byte, error)) ([]byte, error) {
	v := out.Version()
	d.histMu.Lock()
	if d.histVersion != v {
		d.histVersion = v
		d.hist = nil
	}
	if b, ok := d.hist[key]; ok {
		d.histMu.Unlock()
		return b, nil
	}
	d.histMu.Unlock()
	b, err := build()
	if err != nil {
		return nil, err
	}
	d.histMu.Lock()
	if d.histVersion == v && len(d.hist) < maxHistCacheEntries {
		if d.hist == nil {
			d.hist = map[histKey][]byte{}
		}
		d.hist[key] = b
	}
	d.histMu.Unlock()
	return b, nil
}

// DeliveryStatus aggregates the delivery-plane counters across all
// pipelines: encode-once snapshots, suppressed no-op ticks, watch
// fan-out, and conditional-GET hit rates. Appears as the "delivery"
// block on /statusz and GET /v1/wrappers.
type DeliveryStatus struct {
	// Snapshots counts published (encoded + fanned-out) results.
	Snapshots uint64 `json:"snapshots"`
	// SuppressedNoopTicks counts re-deliveries of unchanged content
	// caught before encoding or fan-out.
	SuppressedNoopTicks uint64 `json:"suppressed_noop_ticks"`
	// Broadcasts counts snapshots offered to the watch hubs;
	// Subscribers is the current SSE subscriber count and
	// SubscribersTotal the lifetime number of subscriptions.
	Broadcasts       uint64 `json:"broadcasts"`
	Subscribers      int    `json:"subscribers"`
	SubscribersTotal uint64 `json:"subscribers_total"`
	// DroppedSlow counts events dropped on full subscriber queues (the
	// slow-client policy: drop, count, never block the tick path).
	DroppedSlow uint64 `json:"dropped_slow"`
	// EtagHits counts conditional GETs answered 304; EtagMisses counts
	// conditional GETs whose ETag no longer matched.
	EtagHits   uint64 `json:"etag_hits"`
	EtagMisses uint64 `json:"etag_misses"`
}

// add accumulates one pipeline's delivery counters.
func (ds *DeliveryStatus) add(d *delivery) {
	ds.Snapshots += d.seq.Load()
	ds.SuppressedNoopTicks += d.suppressed.Load()
	ds.EtagHits += d.etagHits.Load()
	ds.EtagMisses += d.etagMisses.Load()
	subs, total, broadcasts, dropped := d.hub.stats()
	ds.Subscribers += subs
	ds.SubscribersTotal += total
	ds.Broadcasts += broadcasts
	ds.DroppedSlow += dropped
}

// DeliveryStatus returns the delivery-plane counters summed over the
// currently registered pipelines.
func (s *Server) DeliveryStatus() DeliveryStatus {
	var ds DeliveryStatus
	s.readPipes.Range(func(_, v any) bool {
		ds.add(&v.(*pipeState).deliver)
		return true
	})
	return ds
}

// ---------------------------------------------------------------------
// Serving.

// etagMatch reports whether any member of an If-None-Match header
// matches the strong etag (weak validators compare equal for GET).
func etagMatch(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

// acceptsGzip reports whether the request allows a gzip response.
func acceptsGzip(r *http.Request) bool {
	ae := r.Header.Get("Accept-Encoding")
	for _, part := range strings.Split(ae, ",") {
		part = strings.TrimSpace(part)
		if enc, q, ok := strings.Cut(part, ";"); ok {
			if strings.TrimSpace(enc) == "gzip" {
				return strings.TrimSpace(q) != "q=0"
			}
		} else if part == "gzip" {
			return true
		}
	}
	return false
}

// setReadRouteHeaders emits the content-negotiation headers shared by
// every read route: caches must key on Accept (XML vs JSON) and
// Accept-Encoding (identity vs gzip), and the charset is explicit so
// proxies never re-guess the encoding.
func setReadRouteHeaders(w http.ResponseWriter, asJSON bool) {
	h := w.Header()
	h.Add("Vary", "Accept")
	h.Add("Vary", "Accept-Encoding")
	if asJSON {
		h.Set("Content-Type", "application/json; charset=utf-8")
	} else {
		h.Set("Content-Type", "application/xml; charset=utf-8")
	}
}

// serveSnapshot writes one snapshot: content negotiation, strong-ETag
// conditional GET, and the precompressed body when the client accepts
// gzip. It never takes a lock. envelope selects the /v1 JSON error
// envelope for encoding failures.
func (ps *pipeState) serveSnapshot(w http.ResponseWriter, r *http.Request, sn *snapshot, envelope bool) {
	asJSON := wantsJSON(r)
	var body []byte
	var etag string
	if asJSON {
		var err error
		body, etag, err = sn.variantJSON()
		if err != nil {
			if envelope {
				writeError(w, http.StatusInternalServerError, "internal", err.Error(), nil)
			} else {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
	} else {
		body, etag = sn.xml, sn.xmlTag
	}
	h := w.Header()
	h.Add("Vary", "Accept")
	h.Add("Vary", "Accept-Encoding")
	h.Set("ETag", etag)
	// The delivery version doubles as the subscriber cursor: clients
	// seed ?since= and SSE Last-Event-ID from it.
	h.Set("Lixto-Version", strconv.FormatUint(sn.version.Load(), 10))
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		if etagMatch(inm, etag) {
			ps.deliver.etagHits.Add(1)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		ps.deliver.etagMisses.Add(1)
	}
	if asJSON {
		h.Set("Content-Type", "application/json; charset=utf-8")
	} else {
		h.Set("Content-Type", "application/xml; charset=utf-8")
	}
	if acceptsGzip(r) {
		if gz := sn.gzipped(asJSON); gz != nil {
			h.Set("Content-Encoding", "gzip")
			h.Set("Content-Length", strconv.Itoa(len(gz)))
			w.Write(gz)
			return
		}
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}
