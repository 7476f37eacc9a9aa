package server

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/resultlog"
)

// TestDrainCompaction pins the end-to-end compaction path: a store with
// a tight segment bound and a compaction threshold accumulates enough
// deliveries that the drain path rewrites the log to a checkpoint — and
// a server restored from the compacted log serves the latest snapshot
// byte-identically, ETag included, with the next delivery continuing
// the version sequence.
func TestDrainCompaction(t *testing.T) {
	dir := t.TempDir()
	store, err := resultlog.Open(dir, resultlog.Options{
		SegmentBytes:    64, // a delivery or two per segment
		MaxSegments:     64,
		Fsync:           resultlog.FsyncOff,
		CompactSegments: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	s1 := New(Config{ResultStore: store})
	p1 := newFakePipe("x", 0)
	if err := s1.Register(p1, time.Hour); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		deliver(t, s1, p1)
	}
	st := store.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compactions after 12 deliveries over 256-byte segments: %+v", st)
	}
	if st.Segments > 3+1 {
		t.Errorf("segment count %d not held down by compaction", st.Segments)
	}
	ts1 := httptest.NewServer(s1.Handler())
	_, latest1, hdr1 := do(t, "GET", ts1.URL+"/x", nil)
	ts1.Close()
	if hdr1.Get("Lixto-Version") != "12" {
		t.Fatalf("version before restart: %q", hdr1.Get("Lixto-Version"))
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := resultlog.Open(dir, resultlog.Options{Fsync: resultlog.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	s2 := New(Config{ResultStore: store2})
	p2 := newFakePipe("x", 0)
	if err := s2.Register(p2, time.Hour); err != nil {
		t.Fatal(err)
	}
	// Appended and checkpoint records alike carry the FNV-1a of their
	// XML, which the publish path takes once and shares with the ETag.
	var lastSum uint64
	log2, err := store2.Log("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := log2.Replay(func(rec resultlog.Record) error {
		if rec.Kind == resultlog.KindSnapshot || rec.Kind == resultlog.KindCheckpoint {
			if want := fnv64a(rec.XML); rec.Fingerprint != want {
				t.Errorf("record v%d kind %d: fingerprint %#x, want FNV-1a of its XML %#x", rec.Version, rec.Kind, rec.Fingerprint, want)
			}
			lastSum = rec.Fingerprint
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := etagOf(lastSum, 'x'); hdr1.Get("ETag") != want {
		t.Errorf("ETag %q is not the last logged fingerprint %q", hdr1.Get("ETag"), want)
	}
	if _, err := s2.Restore(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	_, latest2, hdr2 := do(t, "GET", ts2.URL+"/x", nil)
	if latest2 != latest1 {
		t.Errorf("restored snapshot differs:\n--- before ---\n%s--- after ---\n%s", latest1, latest2)
	}
	if hdr2.Get("ETag") != hdr1.Get("ETag") || hdr2.Get("Lixto-Version") != "12" {
		t.Errorf("restored headers: ETag %q vs %q, version %q",
			hdr2.Get("ETag"), hdr1.Get("ETag"), hdr2.Get("Lixto-Version"))
	}
	// The log continues past the checkpoint.
	deliver(t, s2, p2)
	_, _, hdr3 := do(t, "GET", ts2.URL+"/x", nil)
	if hdr3.Get("Lixto-Version") != "13" {
		t.Errorf("post-restore version = %q, want 13", hdr3.Get("Lixto-Version"))
	}
}
