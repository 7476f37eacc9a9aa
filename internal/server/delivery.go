package server

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/resultlog"
	"repro/internal/xmlenc"
)

// The delivery plane: every pipeline result is encoded exactly once,
// appended to the pipeline's delivery log, and published as an
// immutable snapshot behind an atomic pointer, served to any number of
// readers without touching the server-wide mutex. A snapshot carries
// the pre-encoded XML (eager — the XML bytes double as the change
// detector), the JSON and gzipped variants (lazy, each built at most
// once), and per-variant strong ETags, so the read path is: one
// sync.Map lookup, one atomic load, one header compare, one Write.
//
// Each delivered document is resident once. The XML is the splice
// encoder's previous output, which its table addresses by range (see
// xmlenc.Encoder), and the record the log appends carries the same
// bytes. SSE frames are not cached on the snapshot: the watch hub's
// dispatcher frames each broadcast per representation and queues the
// frame with the event (see watch.go), and the result log frames a
// record in pooled scratch. The snapshot_bytes gauge reports what a
// pipeline's snapshot holds.
//
// Publication happens inside the delivery itself: the collector's
// Journal callback appends the record, so a result is readable the
// moment Process returns, and with a result store it is on the log
// first. No-op deliveries are suppressed before fan-out: when no
// source page's content key changed, the wrapper's memo
// (lixto.Wrapper.Extract) answers a tick or a one-shot extraction with
// its last rendered result, so the previous *xmlenc.Node arrives again
// (pointer equality, checked without encoding), and a fresh document
// object with byte-identical encoding is caught by comparing the
// encoded XML.

// gzipMinSize is the smallest body worth compressing; below it the
// gzip header overhead usually wins.
const gzipMinSize = 256

// snapshot is one immutable published result. The version field is the
// only mutable slot: the publisher bumps it forward (under pubMu) when
// the same content is re-delivered.
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

	// variantBytes is the size of the JSON and gzip variants built so
	// far (the snapshot_bytes gauge reads it without their Onces).
	variantBytes atomic.Uint64
}

// newSnapshot encodes doc with the stateless encoder.
func newSnapshot(doc *xmlenc.Node, version, seq uint64) *snapshot {
	return snapshotOf(doc, xmlenc.MarshalIndentBytes(doc), version, seq)
}

// snapshotOf wraps encoded content that first appeared at version. The
// XML hash is taken once here and reused for the ETag and for the
// result log's record fingerprint.
func snapshotOf(doc *xmlenc.Node, xml []byte, version, seq uint64) *snapshot {
	sn := &snapshot{doc: doc, seq: seq, ver: version, xml: xml, xmlSum: fnv64a(xml)}
	sn.version.Store(version)
	sn.xmlTag = etagOf(sn.xmlSum, 'x')
	return sn
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
		sn.variantBytes.Add(uint64(len(data)))
	})
	return sn.json, sn.jsonTag, sn.jsonErr
}

// gzippers recycles compressors and their output buffers across
// snapshots: a fresh BestSpeed writer allocates ~1.2 MB of flate state,
// Reset reuses it and produces the same bytes. The variant is copied
// out at its exact size, so a snapshot holds no growth slack.
var gzippers = sync.Pool{New: func() any {
	g := new(gzipper)
	g.zw, _ = gzip.NewWriterLevel(&g.buf, gzip.BestSpeed) // the level is valid
	return g
}}

// gzipper is one pooled compressor writing into its own buffer.
type gzipper struct {
	zw  *gzip.Writer
	buf bytes.Buffer
}

// gzipped returns the precompressed variant, or nil when compression
// does not pay (small or incompressible bodies are served identity).
func (sn *snapshot) gzipped(asJSON bool) []byte {
	i := b2i(asJSON)
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
		g := gzippers.Get().(*gzipper)
		defer gzippers.Put(g)
		g.buf.Reset()
		g.zw.Reset(&g.buf)
		if _, err := g.zw.Write(body); err != nil {
			return
		}
		if err := g.zw.Close(); err != nil {
			return
		}
		if g.buf.Len() < len(body) {
			sn.gz[i] = append(make([]byte, 0, g.buf.Len()), g.buf.Bytes()...)
			sn.variantBytes.Add(uint64(g.buf.Len()))
		}
	})
	return sn.gz[i]
}

// sseFrame frames this snapshot as an SSE event in one representation
// — "event: result", the delivery version as the event id (the cursor a
// reconnecting subscriber hands back via Last-Event-ID), and the
// encoded document as data lines. Built per use and never cached: the
// hub's dispatcher builds one per broadcast and representation, and a
// new subscriber's first frame is built on subscribe.
func (sn *snapshot) sseFrame(asJSON bool) []byte {
	payload := sn.xml
	if asJSON {
		body, _, err := sn.variantJSON()
		if err != nil {
			body = []byte(`{"error":"encoding failure"}`)
		}
		payload = body
	}
	return sseFrameFor(payload, sn.ver)
}

// sseFrameFor frames one payload as a complete "event: result" SSE event
// with the delivery version as the id. Shared by the snapshot frames
// and the frames built during Last-Event-ID replay.
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

// delivery is the per-pipeline delivery log and its read side: the
// current snapshot, the publish lock (serializing writers only —
// readers never take it), the retained records, the watch hub, and the
// read-path counters. Appending a record is publishing: the pipeline's
// collector journals every delivery into append, and every history
// read (?since=, ?n=, SSE replay, webhook catch-up) goes through since.
type delivery struct {
	cur   atomic.Pointer[snapshot]
	pubMu sync.Mutex
	seq   atomic.Uint64 // snapshots published (fan-outs + encodes)

	hub watchHub

	// log, when set, is the pipeline's result log (a result store is
	// configured): it is the history, and memory holds only cur.
	// Without it, ring holds the last retain records, oldest first; a
	// no-op record there shares the XML of the content it repeats.
	log    *resultlog.Log
	ringMu sync.Mutex
	ring   []resultlog.Record
	retain int
	// last is the newest appended version; the next append is last+1.
	// Guarded by pubMu.
	last uint64
	// hooks, when set, is the pipeline's outbound webhook set; append
	// nudges its dispatchers.
	hooks *hookSet

	suppressed atomic.Uint64 // no-op ticks caught before fan-out
	etagHits   atomic.Uint64 // conditional GETs answered 304
	etagMisses atomic.Uint64 // conditional GETs that had to send the body

	// enc is the pipeline's splice encoder (see xmlenc.Encoder), built
	// on first publish and used only under pubMu.
	enc *xmlenc.Encoder
}

// snapshot returns the current snapshot, or nil before the first
// delivery: one atomic load.
func (d *delivery) snapshot() *snapshot { return d.cur.Load() }

// head returns the newest published version (0 before the first).
func (d *delivery) head() uint64 {
	if sn := d.cur.Load(); sn != nil {
		return sn.version.Load()
	}
	return 0
}

// append publishes one delivered document as the next version; it is
// the pipeline collector's Journal callback (the collector's own count
// is ignored: the log numbers versions). In order: the document is
// splice-encoded; the record is a version-only no-op when the content
// is unchanged (the same document pointer — the wrapper's memo
// answering with its last result — or byte-identical encoding), else
// a snapshot; the record reaches the result log when one is attached;
// only then is the snapshot swapped in, broadcast, and the webhooks
// nudged. A failed log append publishes nothing (the store counts the
// error), so no reader ever sees a version the log does not hold.
func (d *delivery) append(_ uint64, doc *xmlenc.Node) {
	d.pubMu.Lock()
	defer d.pubMu.Unlock()
	cur := d.cur.Load()
	sn := cur
	rec := resultlog.Record{Kind: resultlog.KindNoop, Version: d.last + 1}
	if cur == nil || cur.doc != doc {
		if d.enc == nil {
			d.enc = xmlenc.NewEncoder()
		}
		xml := d.enc.MarshalIndentBytes(doc)
		if cur == nil || !bytes.Equal(xml, cur.xml) {
			sn = snapshotOf(doc, xml, rec.Version, d.seq.Load()+1)
			rec.Kind, rec.Fingerprint, rec.XML = resultlog.KindSnapshot, sn.xmlSum, xml
		} else {
			// Byte-identical: the published copy stays, so the encoder
			// must address it rather than pin the fresh one.
			d.enc.Rebase(cur.xml)
		}
	}
	if d.log != nil {
		if err := d.log.Append(rec); err != nil {
			return
		}
	} else {
		rec.XML = sn.xml
		d.ringMu.Lock()
		if len(d.ring) >= d.retain {
			d.ring = append(d.ring[:0], d.ring[len(d.ring)-d.retain+1:]...)
		}
		d.ring = append(d.ring, rec)
		d.ringMu.Unlock()
	}
	d.last = rec.Version
	if sn == cur {
		cur.version.Store(rec.Version)
		d.suppressed.Add(1)
	} else {
		d.seq.Add(1)
		d.cur.Store(sn)
		d.hub.broadcast(sn)
	}
	if d.hooks != nil {
		d.hooks.notify()
	}
}

// since returns up to limit records with versions after cursor
// (limit <= 0: all of them), oldest first and consecutive. A no-op
// record comes back carrying the XML of the content it repeats. When
// the first version is past cursor + 1, the records between are a gap:
// retention dropped them, or — for no-ops whose content went with them
// — they can no longer be served.
func (d *delivery) since(cursor uint64, limit int) ([]resultlog.Record, error) {
	if d.log == nil {
		d.ringMu.Lock()
		defer d.ringMu.Unlock()
		i := sort.Search(len(d.ring), func(i int) bool { return d.ring[i].Version > cursor })
		recs := d.ring[i:]
		if limit > 0 && len(recs) > limit {
			recs = recs[:limit]
		}
		return append([]resultlog.Record(nil), recs...), nil
	}
	var recs []resultlog.Record
	var content []byte // the XML in effect at the last record read
	err := d.log.Since(cursor, func(rec resultlog.Record) error {
		switch rec.Kind {
		case resultlog.KindSnapshot, resultlog.KindCheckpoint:
			content = rec.XML
		case resultlog.KindNoop:
			if content == nil {
				var err error
				if content, err = d.contentBefore(rec.Version); err != nil {
					return err
				}
			}
			if content == nil {
				return nil
			}
			rec.XML = content
		default:
			return nil // unknown kind from a future version
		}
		if n := len(recs); n > 0 && rec.Version != recs[n-1].Version+1 {
			recs = recs[:0] // retention deleted the rest under the read
		}
		recs = append(recs, rec)
		if limit > 0 && len(recs) >= limit {
			return errStopRead
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStopRead) {
		return nil, fmt.Errorf("server: reading the result log: %w", err)
	}
	return recs, nil
}

// errStopRead ends a log read early.
var errStopRead = errors.New("server: page full")

// contentBefore returns the XML a no-op record at version v repeats:
// the newest snapshot before v. The current snapshot answers when v
// falls inside its run; otherwise the log is scanned. Nil when the
// snapshot is no longer retained.
func (d *delivery) contentBefore(v uint64) ([]byte, error) {
	if cur := d.cur.Load(); cur != nil && cur.ver < v && v <= cur.version.Load() {
		return cur.xml, nil
	}
	var content []byte
	err := d.log.Replay(func(rec resultlog.Record) error {
		if rec.Version >= v {
			return errStopRead
		}
		if rec.Kind == resultlog.KindSnapshot || rec.Kind == resultlog.KindCheckpoint {
			content = rec.XML
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStopRead) {
		return nil, err
	}
	return content, nil
}

// retained reports how many versions the log can still serve.
func (d *delivery) retained() int {
	if d.log == nil {
		d.ringMu.Lock()
		defer d.ringMu.Unlock()
		return len(d.ring)
	}
	if first := d.log.FirstVersion(); first > 0 {
		return int(d.log.LastVersion() - first + 1)
	}
	return 0
}

// splicedBytes reports the cumulative snapshot bytes this pipeline's
// splice encoder reused from its cache instead of re-encoding (0 when
// nothing has been published). Takes the publish mutex briefly; called
// from the status path only.
func (d *delivery) splicedBytes() uint64 {
	d.pubMu.Lock()
	defer d.pubMu.Unlock()
	if d.enc == nil {
		return 0
	}
	return d.enc.SplicedBytes()
}

// snapshotBytes is the snapshot_bytes gauge: the current snapshot's
// XML, its JSON and gzip variants built so far, and the splice
// encoder's table (whose ranges address that XML). Takes the publish
// mutex briefly; called from the status path only.
func (d *delivery) snapshotBytes() uint64 {
	d.pubMu.Lock()
	defer d.pubMu.Unlock()
	var n uint64
	if sn := d.cur.Load(); sn != nil {
		n = uint64(len(sn.xml)) + sn.variantBytes.Load()
	}
	if d.enc != nil {
		n += uint64(d.enc.TableBytes())
	}
	return n
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

// acceptsGzip reports whether the request allows a gzip response: gzip
// is listed in Accept-Encoding with a qvalue above 0.
func acceptsGzip(r *http.Request) bool {
	best := 0.0
	eachQuality(r.Header.Get("Accept-Encoding"), func(token string, q float64) {
		if token == "gzip" {
			best = max(best, q)
		}
	})
	return best > 0
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
