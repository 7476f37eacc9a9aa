package server

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/xmlenc"
)

// bigPipe delivers a document large enough to clear the gzip
// threshold; every Tick appends a new row so consecutive documents
// differ.
type bigPipe struct {
	*fakePipe
	rows int
}

func newBigPipe(name string, rows int) *bigPipe {
	return &bigPipe{fakePipe: newFakePipe(name, 0), rows: rows}
}

func (b *bigPipe) Tick() error {
	n := b.ticks.Add(1)
	doc := xmlenc.NewElement("doc")
	doc.SetAttr("n", strconv.FormatUint(n, 10))
	for i := 0; i < b.rows; i++ {
		doc.AppendTextElement("row", fmt.Sprintf("row %d of tick %d with enough text to compress", i, n))
	}
	_, err := b.out.Process("", doc)
	return err
}

// TestReadsDoNotTakeServerMutex pins the lock-free read path: with the
// server-wide mutex held, every GET read route still completes.
func TestReadsDoNotTakeServerMutex(t *testing.T) {
	s := New(Config{})
	p := newFakePipe("hot", 0)
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := p.Tick(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.mu.Lock()
	defer s.mu.Unlock()
	done := make(chan string, 1)
	go func() {
		for _, path := range []string{"/hot", "/hot/history?n=2", "/v1/wrappers/hot/results", "/v1/wrappers/hot/results?n=2"} {
			code, _, _ := get(t, ts.URL+path)
			if code != 200 {
				done <- fmt.Sprintf("%s = %d with s.mu held", path, code)
				return
			}
		}
		done <- ""
	}()
	select {
	case msg := <-done:
		if msg != "" {
			t.Fatal(msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reads blocked on the server mutex")
	}
}

func TestConditionalGet(t *testing.T) {
	s := New(Config{})
	p := newFakePipe("etag", 0)
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := p.Tick(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/etag")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `"`) {
		t.Fatalf("missing or weak ETag: %q", etag)
	}
	if got := resp.Header.Values("Vary"); len(got) != 2 || got[0] != "Accept" || got[1] != "Accept-Encoding" {
		t.Fatalf("Vary = %v", got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/xml; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// A matching validator — including list, weak, and * forms — turns
	// into 304 with no body.
	for _, inm := range []string{etag, `"bogus", ` + etag, "W/" + etag, "*"} {
		code, body, _ := get(t, ts.URL+"/etag", "If-None-Match", inm)
		if code != http.StatusNotModified || body != "" {
			t.Fatalf("If-None-Match %q: %d %q", inm, code, body)
		}
	}
	// JSON is a different representation with its own ETag.
	code, _, _ := get(t, ts.URL+"/etag", "Accept", "application/json", "If-None-Match", etag)
	if code != 200 {
		t.Fatalf("XML ETag matched the JSON representation: %d", code)
	}
	// A stale validator gets the new body.
	if err := p.Tick(); err != nil {
		t.Fatal(err)
	}
	code, body, _ := get(t, ts.URL+"/etag", "If-None-Match", etag)
	if code != 200 || !strings.Contains(body, `n="2"`) {
		t.Fatalf("stale validator: %d %q", code, body)
	}
	ds := s.DeliveryStatus()
	if ds.EtagHits != 4 || ds.EtagMisses < 2 {
		t.Fatalf("etag counters: hits=%d misses=%d", ds.EtagHits, ds.EtagMisses)
	}
	// The /v1 results route shares the snapshot and so the ETag.
	resp2, err := http.Get(ts.URL + "/v1/wrappers/etag/results")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	code, _, _ = get(t, ts.URL+"/v1/wrappers/etag/results", "If-None-Match", resp2.Header.Get("ETag"))
	if code != http.StatusNotModified {
		t.Fatalf("v1 results conditional GET: %d", code)
	}
}

func TestGzipPrecompressed(t *testing.T) {
	s := New(Config{})
	p := newBigPipe("big", 50)
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := p.Tick(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Plain body first, for comparison. DisableCompression keeps the
	// transport from transparently gunzipping.
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := client.Get(ts.URL + "/big")
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("Content-Encoding") != "" {
		t.Fatalf("unsolicited Content-Encoding %q", resp.Header.Get("Content-Encoding"))
	}

	req, _ := http.NewRequest("GET", ts.URL+"/big", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	compressed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("Content-Encoding = %q", resp.Header.Get("Content-Encoding"))
	}
	if len(compressed) >= len(plain) {
		t.Fatalf("gzip variant not smaller: %d vs %d", len(compressed), len(plain))
	}
	zr, err := gzip.NewReader(strings.NewReader(string(compressed)))
	if err != nil {
		t.Fatal(err)
	}
	round, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if string(round) != string(plain) {
		t.Fatal("gzip variant does not round-trip to the identity body")
	}

	// Tiny documents are not worth compressing and stay identity.
	p2 := newFakePipe("tiny", 0)
	s2 := New(Config{})
	if err := s2.Register(p2, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := p2.Tick(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	req, _ = http.NewRequest("GET", ts2.URL+"/tiny", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("Content-Encoding") == "gzip" {
		t.Fatal("tiny body was gzipped")
	}
}

// TestEncodeOnceSnapshots pins the encode-once property: any number of
// reads of an unchanged pipeline reuse one published snapshot, and
// no-op re-deliveries (same document pointer, or a fresh document with
// identical bytes) are suppressed without re-encoding or re-publishing.
func TestEncodeOnceSnapshots(t *testing.T) {
	s := New(Config{})
	p := newFakePipe("once", 0)
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := p.Tick(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 25; i++ {
		if code, _, _ := get(t, ts.URL+"/once"); code != 200 {
			t.Fatalf("read %d failed", i)
		}
		if code, _, _ := get(t, ts.URL+"/v1/wrappers/once/results"); code != 200 {
			t.Fatalf("v1 read %d failed", i)
		}
	}
	if ds := s.DeliveryStatus(); ds.Snapshots != 1 {
		t.Fatalf("snapshots = %d after 50 reads of one delivery", ds.Snapshots)
	}

	// Re-delivering the same document pointer (what the wrapper's memo
	// does on unchanged pages) is a suppressed no-op.
	doc := p.out.Latest()
	if _, err := p.out.Process("", doc); err != nil {
		t.Fatal(err)
	}
	// So is a fresh document object with byte-identical content.
	clone := xmlenc.NewElement("doc")
	clone.SetAttr("n", "1")
	if _, err := p.out.Process("", clone); err != nil {
		t.Fatal(err)
	}
	ds := s.DeliveryStatus()
	if ds.Snapshots != 1 || ds.SuppressedNoopTicks != 2 {
		t.Fatalf("snapshots=%d suppressed=%d, want 1/2", ds.Snapshots, ds.SuppressedNoopTicks)
	}

	// Changed content publishes a second snapshot.
	if err := p.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, body, _ := get(t, ts.URL+"/once"); !strings.Contains(body, `n="2"`) {
		t.Fatalf("stale body after new delivery: %q", body)
	}
	if ds := s.DeliveryStatus(); ds.Snapshots != 2 {
		t.Fatalf("snapshots = %d after second delivery", ds.Snapshots)
	}
}

// TestHistoryCache pins that ?n= lists render from the delivery log and
// nothing else: stable across requests, each route with its own root
// element, fresh after the next delivery.
func TestHistoryCache(t *testing.T) {
	p := newFakePipe("hist", 0)
	p.out.Retain = 8
	s := New(Config{})
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := p.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, b1, ct := get(t, ts.URL+"/hist/history?n=3")
	if ct != "application/xml; charset=utf-8" {
		t.Fatalf("history Content-Type = %q", ct)
	}
	// The list is the log's three newest records, newest first.
	ps := s.readPipe("hist")
	recs, err := ps.deliver.since(ps.deliver.head()-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Version != 2 || recs[2].Version != 4 {
		t.Fatalf("log tail = %d records from version %d", len(recs), recs[0].Version)
	}
	if !strings.Contains(b1, `<history name="hist" count="3">`) ||
		strings.Index(b1, `n="4"`) > strings.Index(b1, `n="3"`) ||
		strings.Index(b1, `n="3"`) > strings.Index(b1, `n="2"`) || strings.Contains(b1, `n="1"`) {
		t.Fatalf("history?n=3 is not the log's 3 newest, newest first: %s", b1)
	}
	_, b2, _ := get(t, ts.URL+"/hist/history?n=3")
	if b1 != b2 {
		t.Fatal("history list differs between requests")
	}
	// The v1 list has a different root element.
	_, v1b, _ := get(t, ts.URL+"/v1/wrappers/hist/results?n=3")
	if !strings.Contains(v1b, "<results") || strings.Contains(v1b, "<history") {
		t.Fatalf("v1 list root: %q", v1b)
	}
	if !strings.Contains(b1, "<history") {
		t.Fatalf("legacy list root: %q", b1)
	}
	// A new delivery shows in the next list.
	if err := p.Tick(); err != nil {
		t.Fatal(err)
	}
	_, b3, _ := get(t, ts.URL+"/hist/history?n=3")
	if b3 == b1 || !strings.Contains(b3, `n="5"`) {
		t.Fatalf("history list stale after a delivery: %q", b3)
	}
}

// sseFrameForOld is sseFrameFor as it was before it stopped copying the
// payload to a string and splitting it: the reference the rewrite must
// match byte for byte.
func sseFrameForOld(payload []byte, ver uint64) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "event: result\nid: %d\n", ver)
	for _, line := range strings.Split(strings.TrimRight(string(payload), "\n"), "\n") {
		b.WriteString("data: ")
		b.WriteString(line)
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	return b.Bytes()
}

func TestSSEFrameBytes(t *testing.T) {
	big := xmlenc.NewElement("doc")
	for i := 0; len(xmlenc.MarshalIndentBytes(big)) < 65<<10; i++ {
		for j := 0; j < 100; j++ {
			big.AppendTextElement("row", fmt.Sprintf("row %d.%d with enough text to compress", i, j))
		}
	}
	bigXML := xmlenc.MarshalIndentBytes(big)
	for name, payload := range map[string][]byte{
		"empty":            nil,
		"only-newlines":    []byte("\n\n"),
		"one-line":         []byte("<doc/>"),
		"one-line-nl":      []byte("<doc/>\n"),
		"trailing-nl-run":  []byte("<doc>\n  <a/>\n</doc>\n\n\n\n"),
		"blank-lines":      []byte("a\n\n\nb\n"),
		"leading-newline":  []byte("\na"),
		"carriage-returns": []byte("a\r\nb\r\n"),
		"65KB":             bigXML,
	} {
		for _, ver := range []uint64{0, 7, 1<<64 - 1} {
			got, want := sseFrameFor(payload, ver), sseFrameForOld(payload, ver)
			if !bytes.Equal(got, want) {
				t.Errorf("%s ver %d: frame differs:\n got %q\nwant %q", name, ver, trunc(got), trunc(want))
			}
			if cap(got) > len(got)+64 {
				t.Errorf("%s ver %d: frame of %d bytes holds %d", name, ver, len(got), cap(got))
			}
		}
	}
	// AllocsPerRun counts the whole process's mallocs: collect first, so
	// finalizers of earlier tests' objects do not run inside the count.
	runtime.GC()
	if n := testing.AllocsPerRun(20, func() { sseFrameFor(bigXML, 12345) }); n != 1 {
		t.Errorf("sseFrameFor: %.0f allocs for a 65 KB payload, want 1 (the frame)", n)
	}

	// The gzip variants go through recycled writers: two snapshots of
	// one document built back to back must compress to identical bytes
	// (the second reuses the first's writer), equal to what a fresh
	// writer produces, and decompress to the body.
	for _, asJSON := range []bool{false, true} {
		a, b := newSnapshot(big, 1, 1), newSnapshot(big, 2, 2)
		gzA, gzB := a.gzipped(asJSON), b.gzipped(asJSON)
		body := a.xml
		if asJSON {
			body, _, _ = a.variantJSON()
		}
		var fresh bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&fresh, gzip.BestSpeed)
		zw.Write(body)
		zw.Close()
		if gzA == nil || !bytes.Equal(gzA, gzB) || !bytes.Equal(gzA, fresh.Bytes()) {
			t.Fatalf("json=%v: gzip variants differ: %d, %d, fresh writer %d bytes", asJSON, len(gzA), len(gzB), fresh.Len())
		}
		zr, err := gzip.NewReader(bytes.NewReader(gzB))
		if err != nil {
			t.Fatal(err)
		}
		if plain, err := io.ReadAll(zr); err != nil || !bytes.Equal(plain, body) {
			t.Fatalf("json=%v: gzip variant does not decompress to the body (%v)", asJSON, err)
		}
	}
	if newSnapshot(xmlenc.NewElement("tiny"), 1, 1).gzipped(false) != nil {
		t.Error("a body under gzipMinSize was compressed")
	}
}

func trunc(b []byte) []byte {
	if len(b) > 200 {
		return b[:200]
	}
	return b
}

// etagOf formats by hand; it must spell what fmt did, and fnv64a must
// be FNV-1a.
func TestETagFormat(t *testing.T) {
	for _, sum := range []uint64{0, 1, 0xabc, 0x0123456789abcdef, 1<<64 - 1} {
		for _, kind := range []byte{'x', 'j'} {
			if got, want := etagOf(sum, kind), fmt.Sprintf("\"%016x-%c\"", sum, kind); got != want {
				t.Errorf("etagOf(%#x, %c) = %s, want %s", sum, kind, got, want)
			}
		}
	}
	for _, s := range []string{"", "a", "<doc/>\n", strings.Repeat("lixto", 1000)} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got := fnv64a([]byte(s)); got != h.Sum64() {
			t.Errorf("fnv64a(%q...) = %#x, want %#x", s[:min(len(s), 8)], got, h.Sum64())
		}
	}
}

// statusOf returns one pipeline's /statusz entry.
func statusOf(t *testing.T, s *Server, name string) PipelineStatus {
	t.Helper()
	for _, st := range s.Status() {
		if st.Name == name {
			return st
		}
	}
	t.Fatalf("no status for %q", name)
	return PipelineStatus{}
}

// TestSnapshotBytesGauge pins what snapshot_bytes counts for a known
// document: the XML and the splice table before any read, plus exactly
// the JSON and gzip variants once a read built them, and nothing for an
// SSE subscriber or a WAL append (frames live in the hub's queues and
// the log frames in pooled scratch).
func TestSnapshotBytesGauge(t *testing.T) {
	store := openStore(t, t.TempDir())
	defer store.Close()
	s := New(Config{ResultStore: store})
	rows := make([]*xmlenc.Node, 40)
	for i := range rows {
		rows[i] = xmlenc.NewElement("row").SetAttr("i", strconv.Itoa(i)).
			AppendTextElement("text", fmt.Sprintf("row %d with enough text to compress", i)).Freeze()
	}
	doc := func(n int) *xmlenc.Node {
		return xmlenc.NewElement("doc").SetAttr("n", strconv.Itoa(n)).Append(rows...)
	}
	p := &docPipe{fakePipe: newFakePipe("g", 0), doc: doc(1)}
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	p.doc = doc(2)
	if err := p.Tick(); err != nil {
		t.Fatal(err)
	}
	ps := s.readPipe("g")
	sn := ps.deliver.snapshot()
	table := ps.deliver.enc.TableBytes()
	if table == 0 {
		t.Fatal("the splice table is empty for a document of frozen rows")
	}
	before := statusOf(t, s, "g").SnapshotBytes
	if want := uint64(len(sn.xml) + table); before != want {
		t.Fatalf("snapshot_bytes before any read = %d, want len(xml) %d + table %d", before, len(sn.xml), table)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, _, hdr := do(t, "GET", ts.URL+"/g", nil, "Accept", "application/json", "Accept-Encoding", "gzip"); code != 200 || hdr.Get("Content-Encoding") != "gzip" {
		t.Fatalf("JSON+gzip read: %d, Content-Encoding %q", code, hdr.Get("Content-Encoding"))
	}
	json, _, _ := sn.variantJSON()
	gz := sn.gzipped(true)
	after := statusOf(t, s, "g").SnapshotBytes
	if after-before != uint64(len(json)+len(gz)) {
		t.Fatalf("snapshot_bytes grew by %d after a JSON+gzip read, want the variants' %d + %d", after-before, len(json), len(gz))
	}
	if cap(json) > len(json)+64 || cap(gz) > len(gz)+64 {
		t.Errorf("variants hold growth slack: JSON %d of %d, gzip %d of %d", len(json), cap(json), len(gz), cap(gz))
	}

	c := openWatch(t, ts.URL+"/v1/wrappers/g/watch")
	if ev := c.next(t, 5*time.Second); ev.event != "result" {
		t.Fatalf("first watch event %q", ev.event)
	}
	if got := statusOf(t, s, "g").SnapshotBytes; got != after {
		t.Fatalf("snapshot_bytes moved from %d to %d when a subscriber attached", after, got)
	}
	noops := store.Stats().NoopAppends
	if err := p.Tick(); err != nil { // the same document: a no-op record
		t.Fatal(err)
	}
	if store.Stats().NoopAppends != noops+1 {
		t.Fatal("the re-delivery did not append to the WAL")
	}
	if got := statusOf(t, s, "g").SnapshotBytes; got != after {
		t.Fatalf("snapshot_bytes moved from %d to %d on a WAL append", after, got)
	}
	c.close()
}
