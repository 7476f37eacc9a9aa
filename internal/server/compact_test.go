package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/resultlog"
	"repro/internal/xmlenc"
)

// smallStore opens a store whose segments hold a few records each and
// whose count retention keeps two, so retention runs within a few
// dozen deliveries.
func smallStore(t *testing.T, dir string) *resultlog.Store {
	t.Helper()
	store, err := resultlog.Open(dir, resultlog.Options{SegmentBytes: 128, MaxSegments: 2, Fsync: resultlog.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// served is one GET of a pipeline's latest document.
type served struct {
	code          int
	body          string
	etag, version string
}

func getLatest(t *testing.T, s *Server, name string) served {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, body, hdr := do(t, "GET", ts.URL+"/"+name, nil)
	return served{code, body, hdr.Get("ETag"), hdr.Get("Lixto-Version")}
}

// restart closes store and restores a fresh server with a fresh,
// never-ticked pipeline from its directory, opened with the default
// options.
func restart(t *testing.T, store *resultlog.Store, dir, name string) (*Server, *fakePipe) {
	t.Helper()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store2 := openStore(t, dir)
	t.Cleanup(func() { store2.Close() })
	s := New(Config{ResultStore: store2})
	p := newFakePipe(name, 0)
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Restore(); err != nil {
		t.Fatal(err)
	}
	return s, p
}

// noop re-delivers p's latest document: a suppressed no-op version.
func noop(t *testing.T, p *fakePipe) {
	t.Helper()
	if _, err := p.out.Process("", p.out.Latest()); err != nil {
		t.Fatal(err)
	}
}

// TestRetentionKeepsServedDocument: a pipeline delivers one document
// and then 39 unchanged ones, so count retention reaches the segment
// holding the snapshot. After a restart the server still serves that
// document, with its ETag and the last version, instead of a 503.
func TestRetentionKeepsServedDocument(t *testing.T) {
	dir := t.TempDir()
	store := smallStore(t, dir)
	s1 := New(Config{ResultStore: store})
	p1 := newFakePipe("s", 0)
	if err := s1.Register(p1, time.Hour); err != nil {
		t.Fatal(err)
	}
	deliver(t, s1, p1)
	for i := 0; i < 39; i++ {
		noop(t, p1)
	}
	before := getLatest(t, s1, "s")
	if before.code != http.StatusOK || before.version != "40" {
		t.Fatalf("before restart: %+v", before)
	}
	s2, _ := restart(t, store, dir, "s")
	if after := getLatest(t, s2, "s"); after != before {
		t.Fatalf("restored after retention:\n got %+v\nwant %+v", after, before)
	}
}

// TestDrainCompaction pins the end-to-end retention path: deliveries
// with long no-op runs over tight segments make retention restate the
// newest snapshot as a checkpoint and drop the rest. A server restored
// from that log serves the latest snapshot byte-identically, ETag and
// version included, and its next delivery continues the version
// sequence.
func TestDrainCompaction(t *testing.T) {
	dir := t.TempDir()
	store := smallStore(t, dir)
	s1 := New(Config{ResultStore: store})
	p1 := newFakePipe("x", 0)
	if err := s1.Register(p1, time.Hour); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		deliver(t, s1, p1)
		for j := 0; j < 10; j++ {
			noop(t, p1)
		}
	}
	st := store.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no checkpoints after 33 deliveries over 128-byte segments: %+v", st)
	}
	if st.Segments > 2 {
		t.Errorf("segment count %d not held down by retention", st.Segments)
	}
	before := getLatest(t, s1, "x")
	if before.version != "33" {
		t.Fatalf("version before restart: %+v", before)
	}
	// Appended and checkpoint records alike carry the FNV-1a of their
	// XML, which the publish path takes once and shares with the ETag.
	log1, err := store.Log("x")
	if err != nil {
		t.Fatal(err)
	}
	var lastSum uint64
	if err := log1.Replay(func(rec resultlog.Record) error {
		if rec.Kind != resultlog.KindNoop {
			if want := fnv64a(rec.XML); rec.Fingerprint != want {
				t.Errorf("record v%d kind %d: fingerprint %#x, want FNV-1a of its XML %#x", rec.Version, rec.Kind, rec.Fingerprint, want)
			}
			lastSum = rec.Fingerprint
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := etagOf(lastSum, 'x'); before.etag != want {
		t.Errorf("ETag %q is not the last logged fingerprint %q", before.etag, want)
	}

	s2, p2 := restart(t, store, dir, "x")
	if after := getLatest(t, s2, "x"); after != before {
		t.Errorf("restored after retention:\n got %+v\nwant %+v", after, before)
	}
	deliver(t, s2, p2)
	if v := getLatest(t, s2, "x").version; v != "34" {
		t.Errorf("post-restore version = %q, want 34", v)
	}
}

// TestRestoreCompactedLog: a data directory whose log starts with a
// checkpoint record, as checkpoint compaction used to write it (the
// newest snapshot restated at the last version in a fresh segment,
// every older segment deleted), restores that document, its ETag and
// the version after it, and keeps appending.
func TestRestoreCompactedLog(t *testing.T) {
	dir := t.TempDir()
	xml := xmlenc.MarshalIndentBytes(xmlenc.NewElement("doc").SetAttr("n", "7"))
	var seg []byte
	seg = resultlog.AppendRecord(seg, resultlog.Record{Kind: resultlog.KindCheckpoint, Version: 12,
		Time: 1, Fingerprint: fnv64a(xml), XML: xml})
	seg = resultlog.AppendRecord(seg, resultlog.Record{Kind: resultlog.KindNoop, Version: 13, Time: 2})
	if err := os.MkdirAll(filepath.Join(dir, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "x", "00000005.wal"), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	s, p := restart(t, openStore(t, dir), dir, "x")
	got := getLatest(t, s, "x")
	want := served{http.StatusOK, string(xml), etagOf(fnv64a(xml), 'x'), "13"}
	if got != want {
		t.Fatalf("restored from a compacted log:\n got %+v\nwant %+v", got, want)
	}
	recs, err := s.pipe("x").deliver.since(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Version != 12 || string(recs[1].XML) != string(xml) {
		t.Fatalf("history of a compacted log: %+v", recs)
	}
	deliver(t, s, p)
	if v := getLatest(t, s, "x").version; v != "14" {
		t.Errorf("post-restore version = %q, want 14", v)
	}
}
