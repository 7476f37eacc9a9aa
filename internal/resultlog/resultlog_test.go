package resultlog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustLog(t *testing.T, s *Store, name string) *Log {
	t.Helper()
	l, err := s.Log(name)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(func(r Record) error { out = append(out, r); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: KindSnapshot, Version: 1, Time: 42, Fingerprint: 7, XML: []byte("<doc/>\n")},
		{Kind: KindNoop, Version: 2, Time: 43},
		{Kind: KindSnapshot, Version: 1<<63 + 5, Time: -1, Fingerprint: ^uint64(0), XML: bytes.Repeat([]byte("x"), 10000)},
		{Kind: KindSnapshot, Version: 9, XML: nil},
	}
	var buf []byte
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	off := 0
	for i, want := range recs {
		got, n, err := DecodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		off += n
		if got.Kind != want.Kind || got.Version != want.Version || got.Time != want.Time ||
			got.Fingerprint != want.Fingerprint || !bytes.Equal(got.XML, want.XML) {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

func TestRecordCorruptionDetected(t *testing.T) {
	good := AppendRecord(nil, Record{Kind: KindSnapshot, Version: 3, Time: 1, XML: []byte("<a/>")})
	// Every single-bit flip must either fail the CRC or shorten the
	// frame — never decode to a different record silently.
	for i := 0; i < len(good)*8; i++ {
		bad := append([]byte(nil), good...)
		bad[i/8] ^= 1 << (i % 8)
		rec, _, err := DecodeRecord(bad)
		if err == nil {
			// A flip inside the length prefix can still frame a valid
			// record only if the CRC happens to match, which it must not.
			if rec.Version != 3 || !bytes.Equal(rec.XML, []byte("<a/>")) {
				t.Fatalf("bit %d: corrupt frame decoded as %+v", i, rec)
			}
		}
	}
	// Truncations at every length are torn, not errors or panics.
	for i := 0; i < len(good); i++ {
		if _, _, err := DecodeRecord(good[:i]); err == nil {
			t.Fatalf("truncated frame of %d bytes decoded", i)
		}
	}
}

func TestAppendReplay(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	l := mustLog(t, s, "w")
	for v := uint64(1); v <= 5; v++ {
		kind := KindSnapshot
		xml := []byte(fmt.Sprintf("<doc n=%q/>\n", fmt.Sprint(v)))
		if v == 3 {
			kind, xml = KindNoop, nil
		}
		if err := l.Append(Record{Kind: kind, Version: v, Fingerprint: v * 10, XML: xml}); err != nil {
			t.Fatal(err)
		}
	}
	recs := collect(t, l)
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	if recs[2].Kind != KindNoop || recs[2].XML != nil {
		t.Fatalf("noop record round-trip: %+v", recs[2])
	}
	if l.LastVersion() != 5 {
		t.Fatalf("LastVersion = %d", l.LastVersion())
	}
	// Versions must move forward.
	if err := l.Append(Record{Kind: KindNoop, Version: 5}); err == nil {
		t.Fatal("stale version accepted")
	}
	// Cursor reads skip up to and including the cursor.
	var since []uint64
	if err := l.Since(3, func(r Record) error { since = append(since, r.Version); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(since) != 2 || since[0] != 4 || since[1] != 5 {
		t.Fatalf("Since(3) = %v", since)
	}
}

func TestReopenContinues(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	l := mustLog(t, s, "w")
	for v := uint64(1); v <= 3; v++ {
		if err := l.Append(Record{Kind: KindSnapshot, Version: v, XML: []byte("<d/>")}); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: simulate the crash path (writes reached the OS).
	s2 := open(t, dir, Options{})
	l2 := mustLog(t, s2, "w")
	if l2.LastVersion() != 3 {
		t.Fatalf("reopened LastVersion = %d", l2.LastVersion())
	}
	if err := l2.Append(Record{Kind: KindSnapshot, Version: 4, XML: []byte("<d4/>")}); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l2); len(got) != 4 || got[3].Version != 4 {
		t.Fatalf("after reopen+append: %d records", len(got))
	}
}

func TestTornTailIgnoredAndTruncated(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	l := mustLog(t, s, "w")
	for v := uint64(1); v <= 3; v++ {
		if err := l.Append(Record{Kind: KindSnapshot, Version: v, XML: []byte("<doc/>")}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Tear the tail: append half a record to the active segment.
	seg := filepath.Join(dir, "w", segName(1))
	torn := AppendRecord(nil, Record{Kind: KindSnapshot, Version: 4, XML: []byte("<lost/>")})
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := open(t, dir, Options{})
	l2 := mustLog(t, s2, "w")
	if l2.LastVersion() != 3 {
		t.Fatalf("LastVersion after torn tail = %d", l2.LastVersion())
	}
	if got := collect(t, l2); len(got) != 3 {
		t.Fatalf("replayed %d records, want 3 (torn tail dropped)", len(got))
	}
	if s2.Stats().TornRecords == 0 {
		t.Fatal("torn record not counted")
	}
	// The tail was truncated away, so appending continues cleanly on a
	// record boundary.
	if err := l2.Append(Record{Kind: KindSnapshot, Version: 4, XML: []byte("<doc4/>")}); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l2); len(got) != 4 || got[3].Version != 4 {
		t.Fatalf("append after truncation: %v records", len(got))
	}
}

func TestRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 256, MaxSegments: 3})
	l := mustLog(t, s, "w")
	payload := bytes.Repeat([]byte("r"), 100)
	for v := uint64(1); v <= 40; v++ {
		if err := l.Append(Record{Kind: KindSnapshot, Version: v, XML: payload}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Rotations == 0 {
		t.Fatal("no rotations at a 256-byte segment bound")
	}
	if st.TruncatedSegments == 0 {
		t.Fatal("no truncation with MaxSegments 3")
	}
	files, err := filepath.Glob(filepath.Join(dir, "w", "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) > 3 {
		t.Fatalf("%d segments on disk, cap 3", len(files))
	}
	if st.Compactions != 0 {
		t.Fatalf("%d checkpoints written, but every segment holds a snapshot", st.Compactions)
	}
	// The newest records survive; replay stays contiguous at the tail.
	recs := collect(t, l)
	if len(recs) == 0 || recs[len(recs)-1].Version != 40 {
		t.Fatalf("tail record = %+v", recs[len(recs)-1])
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Version != recs[i-1].Version+1 {
			t.Fatalf("gap inside retained records: %d → %d", recs[i-1].Version, recs[i].Version)
		}
	}
}

func TestFsyncModes(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncAlways, FsyncBatch, FsyncOff} {
		s := open(t, t.TempDir(), Options{Fsync: mode})
		l := mustLog(t, s, "w")
		if err := l.Append(Record{Kind: KindSnapshot, Version: 1, XML: []byte("<x/>")}); err != nil {
			t.Fatal(err)
		}
		switch mode {
		case FsyncAlways:
			if s.Stats().Fsyncs == 0 {
				t.Fatal("FsyncAlways did not sync on append")
			}
		case FsyncBatch:
			deadline := time.Now().Add(2 * time.Second)
			for s.Stats().BatchedSyncs == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if s.Stats().BatchedSyncs == 0 {
				t.Fatal("batch syncer never flushed a dirty log")
			}
		case FsyncOff:
			if s.Stats().Fsyncs != 0 {
				t.Fatal("FsyncOff synced")
			}
		}
	}
}

func TestParseFsyncMode(t *testing.T) {
	for in, want := range map[string]FsyncMode{
		"": FsyncBatch, "batch": FsyncBatch, "always": FsyncAlways, "off": FsyncOff, "none": FsyncOff,
	} {
		got, err := ParseFsyncMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFsyncMode("sometimes"); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func TestMetaSidecars(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	type spec struct {
		Name string `json:"name"`
		N    int    `json:"n"`
	}
	if err := s.SaveMeta("w", "spec.json", spec{Name: "w", N: 3}); err != nil {
		t.Fatal(err)
	}
	var got spec
	if err := s.LoadMeta("w", "spec.json", &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "w" || got.N != 3 {
		t.Fatalf("meta round-trip: %+v", got)
	}
	if err := s.LoadMeta("w", "missing.json", &got); !os.IsNotExist(err) {
		t.Fatalf("missing meta: %v", err)
	}
	names, err := s.Names()
	if err != nil || len(names) != 1 || names[0] != "w" {
		t.Fatalf("Names = %v, %v", names, err)
	}
	if err := s.Remove("w"); err != nil {
		t.Fatal(err)
	}
	if names, _ := s.Names(); len(names) != 0 {
		t.Fatalf("after Remove: %v", names)
	}
}

func TestNameValidation(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	for _, bad := range []string{"", ".", "..", "a/b", `a\b`} {
		if _, err := s.Log(bad); err == nil {
			t.Fatalf("Log(%q) accepted", bad)
		}
		if err := s.SaveMeta(bad, "x.json", 1); err == nil {
			t.Fatalf("SaveMeta(%q) accepted", bad)
		}
	}
}

// A log keeps no frame between appends: the record's XML is the
// published snapshot, already resident once, and a per-log scratch
// copy of it would double that for every wrapper. Appending a 1 MiB
// snapshot in each of 16 logs, then no-ops until retention re-reads it
// from disk and restates it as a checkpoint, leaves the heap where it
// was once the collector has run.
func TestLogHoldsNoFrameBetweenAppends(t *testing.T) {
	s := open(t, t.TempDir(), Options{SegmentBytes: 1024, MaxSegments: 2, Fsync: FsyncOff})
	xml := bytes.Repeat([]byte("<row>payload</row>\n"), (1<<20)/19)
	logs := make([]*Log, 16)
	for i := range logs {
		logs[i] = mustLog(t, s, fmt.Sprintf("w%d", i))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, l := range logs {
		if err := l.Append(Record{Kind: KindSnapshot, Version: 1, XML: xml}); err != nil {
			t.Fatal(err)
		}
		// 32 no-ops fill the next segment; its rotation drops the
		// snapshot's.
		for v := uint64(2); v <= 33; v++ {
			if err := l.Append(Record{Kind: KindNoop, Version: v}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := s.Stats(); st.Compactions != uint64(len(logs)) {
		t.Fatalf("%d checkpoints for %d logs", st.Compactions, len(logs))
	}
	// Pooled scratch survives one collection in the victim cache.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 2<<20 {
		t.Errorf("16 logs hold %d KiB after appending a %d KiB record each", grew>>10, len(xml)>>10)
	}
	runtime.KeepAlive(logs)
}
