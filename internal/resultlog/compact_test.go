package resultlog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// appendDoc writes one snapshot record carrying xml at version v.
func appendDoc(t *testing.T, l *Log, v uint64, xml []byte) {
	t.Helper()
	if err := l.Append(Record{Kind: KindSnapshot, Version: v, Fingerprint: v, XML: xml}); err != nil {
		t.Fatalf("append %d: %v", v, err)
	}
}

// appendNoops writes n no-op records after version from, returning the
// last version written.
func appendNoops(t *testing.T, l *Log, from uint64, n int) uint64 {
	t.Helper()
	for i := 1; i <= n; i++ {
		if err := l.Append(Record{Kind: KindNoop, Version: from + uint64(i)}); err != nil {
			t.Fatalf("noop %d: %v", from+uint64(i), err)
		}
	}
	return from + uint64(n)
}

func segFiles(t *testing.T, dir, name string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") {
			out = append(out, e.Name())
		}
	}
	return out
}

// lastDoc returns the newest snapshot or checkpoint record a replay
// yields: the document a restore would serve.
func lastDoc(t *testing.T, l *Log) Record {
	t.Helper()
	var doc Record
	for _, rec := range collect(t, l) {
		if rec.Kind != KindNoop {
			doc = rec
		}
	}
	return doc
}

// TestRetentionKeepsCurrentDocument: one snapshot followed by a long
// run of no-ops fills more segments than count retention keeps. The
// snapshot's segment goes, but the document survives a close and
// reopen as a checkpoint.
func TestRetentionKeepsCurrentDocument(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 128, MaxSegments: 2, Fsync: FsyncOff}
	s := open(t, dir, opts)
	l := mustLog(t, s, "w")
	xml := []byte("<doc>" + strings.Repeat("x", 100) + "</doc>\n")
	appendDoc(t, l, 1, xml)
	last := appendNoops(t, l, 1, 39)
	if s.Stats().TruncatedSegments == 0 {
		t.Fatal("retention never ran")
	}
	s.Close()

	l2 := mustLog(t, open(t, dir, opts), "w")
	if l2.LastVersion() != last {
		t.Fatalf("LastVersion after reopen = %d, want %d", l2.LastVersion(), last)
	}
	doc := lastDoc(t, l2)
	if !bytes.Equal(doc.XML, xml) || doc.Fingerprint != 1 {
		t.Fatalf("document lost to retention: newest record %+v", doc)
	}
}

// TestCompactTruncatesHistory: when count retention reaches the
// segment holding the newest snapshot, the log collapses onto a
// checkpoint restating that snapshot at the current version, in the
// active segment, and keeps appending after it.
func TestCompactTruncatesHistory(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 256, MaxSegments: 3, Fsync: FsyncOff})
	l := mustLog(t, s, "w")
	xml := []byte("<doc>" + strings.Repeat("x", 200) + "</doc>\n")
	appendDoc(t, l, 1, xml)
	// Eight 33-byte no-ops fill a segment. The third rotation, at the
	// 17th no-op, drops the snapshot's segment.
	last := appendNoops(t, l, 1, 20)
	if st := s.Stats(); st.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1: %+v", st.Compactions, st)
	}
	if got := segFiles(t, dir, "w"); len(got) > 3 {
		t.Fatalf("segments after the checkpoint = %v, cap 3", got)
	}
	recs := collect(t, l)
	if recs[0].Kind != KindCheckpoint || !bytes.Equal(recs[0].XML, xml) || recs[0].Fingerprint != 1 {
		t.Fatalf("log does not start with the checkpoint: %+v", recs[0])
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Kind != KindNoop || recs[i].Version != recs[i-1].Version+1 {
			t.Fatalf("record %d after the checkpoint: %+v", i, recs[i])
		}
	}
	if recs[len(recs)-1].Version != last || l.LastVersion() != last {
		t.Errorf("tail %d, LastVersion %d, want %d", recs[len(recs)-1].Version, l.LastVersion(), last)
	}

	// A cursor at the checkpoint's version sees only the newer records.
	ck := recs[0].Version
	var since []uint64
	if err := l.Since(ck, func(r Record) error { since = append(since, r.Version); return nil }); err != nil {
		t.Fatal(err)
	}
	if uint64(len(since)) != last-ck || (len(since) > 0 && since[0] != ck+1) {
		t.Errorf("Since(%d) = %v", ck, since)
	}
}

// A reopened store restores from the checkpoint exactly as it would
// from the full history's tail, and appends continue after it.
func TestCompactSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 256, MaxSegments: 2, Fsync: FsyncOff}
	s := open(t, dir, opts)
	l := mustLog(t, s, "w")
	xml := []byte("<state>" + strings.Repeat("s", 200) + "</state>\n")
	appendDoc(t, l, 1, xml)
	last := appendNoops(t, l, 1, 12)
	if s.Stats().Compactions == 0 {
		t.Fatal("no checkpoint written")
	}
	s.Close()

	s2 := open(t, dir, opts)
	l2 := mustLog(t, s2, "w")
	if l2.LastVersion() != last {
		t.Fatalf("LastVersion after reopen = %d, want %d", l2.LastVersion(), last)
	}
	recs := collect(t, l2)
	if recs[0].Kind != KindCheckpoint || !bytes.Equal(recs[0].XML, xml) {
		t.Fatalf("first replayed record not the checkpoint: %+v", recs[0])
	}
	if recs[len(recs)-1].Version != last {
		t.Fatalf("replay ends at %d, want %d", recs[len(recs)-1].Version, last)
	}
	appendDoc(t, l2, last+1, []byte("<n/>"))
	if got := lastDoc(t, l2); got.Version != last+1 {
		t.Fatalf("append after reopen: newest document at %d", got.Version)
	}
}

// TestSinceDuringRetention: cursor reads racing appends, rotation and
// retention checkpoints never fail on a segment deleted under them and
// never yield a version twice or out of order; a read that loses its
// segments resumes at the oldest survivor. The log ends holding the
// newest document.
func TestSinceDuringRetention(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 512, MaxSegments: 2, Fsync: FsyncOff})
	l := mustLog(t, s, "w")
	const appends = 3000
	done := make(chan struct{})
	errs := make(chan error, 1)
	var newest []byte
	go func() {
		defer close(done)
		for v := uint64(1); v <= appends; v++ {
			rec := Record{Kind: KindNoop, Version: v}
			if v%50 == 1 {
				newest = []byte(fmt.Sprintf("<doc v=\"%d\">%s</doc>\n", v, strings.Repeat("x", 200)))
				rec = Record{Kind: KindSnapshot, Version: v, Fingerprint: v, XML: newest}
			}
			if err := l.Append(rec); err != nil {
				errs <- err
				return
			}
		}
	}()
	reads := 0
	for running := true; running; reads++ {
		select {
		case <-done:
			running = false
		default:
		}
		var last uint64
		err := l.Since(0, func(rec Record) error {
			if rec.Version <= last {
				return fmt.Errorf("version %d after %d", rec.Version, last)
			}
			last = rec.Version
			return nil
		})
		if err != nil {
			t.Fatalf("read %d: %v", reads, err)
		}
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if st := s.Stats(); st.Compactions == 0 || st.TruncatedSegments == 0 {
		t.Fatalf("no retention checkpoint raced the reads: %+v", st)
	}
	first := l.FirstVersion()
	var got []uint64
	if err := l.Since(0, func(rec Record) error { got = append(got, rec.Version); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0] != first || got[len(got)-1] != appends {
		t.Fatalf("FirstVersion %d, log holds %v", first, got)
	}
	if doc := lastDoc(t, l); !bytes.Equal(doc.XML, newest) {
		t.Fatalf("newest document not retained: %+v", doc)
	}
}
