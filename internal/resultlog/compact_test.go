package resultlog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// appendN writes n snapshot records of ~size bytes starting at version
// from, returning the last version written.
func appendN(t *testing.T, l *Log, from uint64, n, size int) uint64 {
	t.Helper()
	v := from
	for i := 0; i < n; i++ {
		xml := []byte("<doc v=\"" + fmt.Sprint(v) + "\">" + strings.Repeat("x", size) + "</doc>\n")
		if err := l.Append(Record{Kind: KindSnapshot, Version: v, Fingerprint: v, XML: xml}); err != nil {
			t.Fatalf("append %d: %v", v, err)
		}
		v++
	}
	return v - 1
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

func TestCompactTruncatesHistory(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 2048, MaxSegments: 64, Fsync: FsyncOff, CompactSegments: 3})
	l := mustLog(t, s, "w")
	last := appendN(t, l, 1, 40, 128) // forces several rotations
	if !l.NeedsCompaction() {
		t.Fatalf("expected NeedsCompaction after %d segment files", len(segFiles(t, dir, "w")))
	}
	checkpoint := []byte("<doc v=\"" + fmt.Sprint(last) + "\">latest</doc>\n")
	if err := l.Compact(Record{Version: last, Fingerprint: last, XML: checkpoint}); err != nil {
		t.Fatal(err)
	}
	if l.NeedsCompaction() {
		t.Error("still NeedsCompaction immediately after Compact")
	}
	if got := segFiles(t, dir, "w"); len(got) != 1 {
		t.Fatalf("segments after compact = %v, want exactly one", got)
	}
	recs := collect(t, l)
	if len(recs) != 1 {
		t.Fatalf("replay after compact = %d records, want 1", len(recs))
	}
	if recs[0].Kind != KindCheckpoint || recs[0].Version != last || !bytes.Equal(recs[0].XML, checkpoint) {
		t.Fatalf("checkpoint replayed wrong: %+v", recs[0])
	}
	if l.LastVersion() != last {
		t.Errorf("LastVersion = %d, want %d", l.LastVersion(), last)
	}
	if st := s.Stats(); st.Compactions != 1 {
		t.Errorf("Compactions = %d, want 1", st.Compactions)
	}

	// The log keeps appending after the checkpoint, and a cursor at the
	// checkpoint version sees only the newer records.
	appendN(t, l, last+1, 3, 16)
	var since []uint64
	l.Since(last, func(r Record) error { since = append(since, r.Version); return nil })
	if len(since) != 3 || since[0] != last+1 {
		t.Errorf("Since(checkpoint) = %v", since)
	}
}

// A reopened store must restore from the checkpoint exactly as it would
// from the full history's tail.
func TestCompactSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 1024, MaxSegments: 64, Fsync: FsyncOff, CompactSegments: 2}
	s := open(t, dir, opts)
	l := mustLog(t, s, "w")
	last := appendN(t, l, 1, 20, 100)
	checkpoint := []byte("<state/>\n")
	if err := l.Compact(Record{Version: last, Fingerprint: 9, XML: checkpoint}); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, last+1, 2, 16)
	s.Close()

	s2 := open(t, dir, opts)
	l2 := mustLog(t, s2, "w")
	if l2.LastVersion() != last+2 {
		t.Fatalf("LastVersion after reopen = %d, want %d", l2.LastVersion(), last+2)
	}
	recs := collect(t, l2)
	if len(recs) != 3 {
		t.Fatalf("replay after reopen = %d records, want 3 (checkpoint + 2)", len(recs))
	}
	if recs[0].Kind != KindCheckpoint || !bytes.Equal(recs[0].XML, checkpoint) {
		t.Fatalf("first replayed record not the checkpoint: %+v", recs[0])
	}
	// Appends continue past the restored tail.
	if err := l2.Append(Record{Kind: KindSnapshot, Version: last + 3, XML: []byte("<n/>")}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactVersionRules(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{Fsync: FsyncOff, CompactSegments: 1})
	l := mustLog(t, s, "w")
	appendN(t, l, 1, 3, 16)
	// Behind the log's last version: rejected (Append would also refuse
	// an equal version; Compact uniquely allows restating it).
	if err := l.Compact(Record{Version: 2, XML: []byte("<x/>")}); err == nil {
		t.Error("Compact accepted a stale version")
	}
	if err := l.Compact(Record{Version: 3, XML: []byte("<x/>")}); err != nil {
		t.Errorf("Compact rejected the current version: %v", err)
	}
	if l.LastVersion() != 3 {
		t.Errorf("LastVersion = %d", l.LastVersion())
	}
}

func TestNeedsCompactionOffByDefault(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 512, Fsync: FsyncOff})
	l := mustLog(t, s, "w")
	appendN(t, l, 1, 30, 100)
	if l.NeedsCompaction() {
		t.Error("NeedsCompaction true with CompactSegments unset")
	}
}

// TestSinceDuringCompaction: cursor reads racing appends, rotation,
// and checkpoint compaction never fail on a segment deleted under them
// and never yield a version twice or out of order; a read that loses
// its segments resumes at the oldest survivor.
func TestSinceDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 4096, Fsync: FsyncOff, CompactSegments: 2})
	l := mustLog(t, s, "w")
	const appends = 3000
	done := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		defer close(done)
		for v := uint64(1); v <= appends; v++ {
			xml := []byte(fmt.Sprintf("<doc v=\"%d\">%s</doc>\n", v, strings.Repeat("x", 200)))
			if err := l.Append(Record{Kind: KindSnapshot, Version: v, Fingerprint: v, XML: xml}); err != nil {
				errs <- err
				return
			}
			if l.NeedsCompaction() {
				if err := l.Compact(Record{Version: v, Fingerprint: v, XML: xml}); err != nil {
					errs <- err
					return
				}
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
	if st := s.Stats(); st.Compactions == 0 {
		t.Fatalf("no compaction raced the reads: %+v", st)
	}
	first := l.FirstVersion()
	var got []uint64
	if err := l.Since(0, func(rec Record) error { got = append(got, rec.Version); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0] != first || got[len(got)-1] != appends {
		t.Fatalf("FirstVersion %d, log holds %d..%d", first, got[0], got[len(got)-1])
	}
}
