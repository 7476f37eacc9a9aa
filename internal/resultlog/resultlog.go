// Package resultlog is the durable half of the delivery plane: a
// per-wrapper append-only write-ahead log of result snapshots. Every
// record carries the delivery version, the content fingerprint, and
// the already-encoded XML bytes published by the server's snapshot
// plane. With a store attached the log is the wrapper's whole history:
// a restarted server rebuilds the latest snapshot, ETag, and delivery
// version from it byte-identically, and every history read — ?since=,
// ?n=, SSE Last-Event-ID replay, webhook catch-up — is a cursor read
// (Log.Since) over it.
//
// Layout: <dir>/<wrapper>/NNNNNNNN.wal segment files plus small JSON
// sidecars (wrapper spec, webhook registrations) written atomically.
// Records are length-prefixed and CRC-checked; a torn tail (the crash
// case) is detected and ignored rather than poisoning the log. The
// active segment rotates at 4 MiB, and one retention rule keeps the
// newest 8 segments. It never drops the current document: before it
// deletes the segment holding the newest snapshot, it restates that
// snapshot as a checkpoint record in the fresh active segment, and the
// closed segments after it, which hold only no-ops repeating it, go
// too. A cursor read that races a deletion resumes on the surviving
// segments, so its versions jump instead of failing.
//
// Appends write() straight through to the OS so a kill -9 loses at
// most the not-yet-acknowledged delivery; fsync is batched on a
// background syncer every 50 ms (FsyncBatch, the default) so the
// publish path never waits on the disk. FsyncAlways trades publish
// latency for power-loss durability; FsyncOff leaves flushing to the
// OS entirely.
package resultlog

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Record kinds.
const (
	// KindSnapshot is a full result snapshot: the encoded XML bytes of
	// one published delivery.
	KindSnapshot byte = 1
	// KindNoop marks a delivery whose content was identical to the
	// previous snapshot (a suppressed no-op tick): the version advanced
	// but the bytes did not, so only the version is logged and replay
	// re-appends the previous document.
	KindNoop byte = 2
	// KindCheckpoint is the newest snapshot restated by retention, at
	// the log's last version, so the segment holding the original can
	// be deleted. It carries the same payload as KindSnapshot and
	// replays the same way; uniquely, its version equals the last
	// version logged before it, since it restates rather than advances
	// the delivery state.
	KindCheckpoint byte = 3
)

// Record is one logged delivery.
type Record struct {
	Kind byte
	// Version is the collector's delivery version for this record;
	// strictly increasing within a log.
	Version uint64
	// Time is the append wall-clock time in Unix nanoseconds.
	Time int64
	// Fingerprint is the FNV-1a hash of the XML bytes (the same hash
	// the delivery plane derives ETags from). Zero for noop records.
	Fingerprint uint64
	// XML is the encoded snapshot; empty for noop records.
	XML []byte
}

// recHeaderLen is the fixed frame prefix: payload length + CRC.
const recHeaderLen = 8

// payloadHeaderLen is the fixed payload prefix: kind, version, time,
// fingerprint.
const payloadHeaderLen = 1 + 8 + 8 + 8

// maxRecordBytes bounds a single record so a corrupt length prefix
// cannot ask the reader to allocate gigabytes.
const maxRecordBytes = 64 << 20

// AppendRecord encodes rec onto buf (reusing its capacity) and returns
// the extended slice. The frame is
//
//	uint32 payload length | uint32 CRC-32 (IEEE) of payload |
//	byte kind | uint64 version | int64 time | uint64 fingerprint | xml…
//
// with all integers little-endian.
func AppendRecord(buf []byte, rec Record) []byte {
	n := payloadHeaderLen + len(rec.XML)
	start := len(buf)
	buf = append(buf, make([]byte, recHeaderLen+n)...)
	payload := buf[start+recHeaderLen:]
	payload[0] = rec.Kind
	binary.LittleEndian.PutUint64(payload[1:], rec.Version)
	binary.LittleEndian.PutUint64(payload[9:], uint64(rec.Time))
	binary.LittleEndian.PutUint64(payload[17:], rec.Fingerprint)
	copy(payload[payloadHeaderLen:], rec.XML)
	binary.LittleEndian.PutUint32(buf[start:], uint32(n))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// errTorn reports a frame that does not decode: a truncated tail, a
// length prefix past the data, or a checksum mismatch. Readers treat
// it as "the log ends here".
var errTorn = errors.New("resultlog: torn or corrupt record")

// DecodeRecord decodes one record from the front of b, returning the
// record and the number of bytes consumed. A short, oversized, or
// checksum-failing frame returns errTorn.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < recHeaderLen {
		return Record{}, 0, errTorn
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < payloadHeaderLen || n > maxRecordBytes || len(b) < recHeaderLen+n {
		return Record{}, 0, errTorn
	}
	payload := b[recHeaderLen : recHeaderLen+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:]) {
		return Record{}, 0, errTorn
	}
	rec := Record{
		Kind:        payload[0],
		Version:     binary.LittleEndian.Uint64(payload[1:]),
		Time:        int64(binary.LittleEndian.Uint64(payload[9:])),
		Fingerprint: binary.LittleEndian.Uint64(payload[17:]),
	}
	if n > payloadHeaderLen {
		rec.XML = append([]byte(nil), payload[payloadHeaderLen:]...)
		rec.XML = rec.XML[:n-payloadHeaderLen]
	}
	return rec, recHeaderLen + n, nil
}

// FsyncMode selects how appended records reach stable storage.
type FsyncMode int

const (
	// FsyncBatch (default) fsyncs dirty logs from a background syncer
	// every fsyncInterval: the publish path never waits on the disk,
	// and a power loss costs at most one interval of appends.
	FsyncBatch FsyncMode = iota
	// FsyncAlways fsyncs inside every Append.
	FsyncAlways
	// FsyncOff never fsyncs; the OS flushes on its own schedule.
	FsyncOff
)

// ParseFsyncMode maps the -wal-fsync flag values onto a mode.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch strings.ToLower(s) {
	case "", "batch":
		return FsyncBatch, nil
	case "always":
		return FsyncAlways, nil
	case "off", "none":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("resultlog: unknown fsync mode %q (want batch, always, or off)", s)
}

// fsyncInterval is the FsyncBatch syncer's period.
const fsyncInterval = 50 * time.Millisecond

// Options tunes a Store.
type Options struct {
	// Fsync selects the durability mode (default FsyncBatch).
	Fsync FsyncMode
	// SegmentBytes and MaxSegments shrink the segment rotation size
	// (default 4 MiB) and the count retention (default 8 segments,
	// active included; at least 2) so tests reach rotation and
	// retention in a few appends. Nothing else sets them.
	SegmentBytes int64
	MaxSegments  int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.MaxSegments <= 0 {
		o.MaxSegments = 8
	}
	o.MaxSegments = max(o.MaxSegments, 2)
	return o
}

// Stats are the store-wide persistence counters, reported on /statusz
// as the "persistence" block.
type Stats struct {
	// Wrappers is the number of open per-wrapper logs.
	Wrappers int `json:"wrappers"`
	// Segments is the total segment-file count across open logs.
	Segments int `json:"segments"`
	// Appends counts snapshot records written; NoopAppends counts
	// version-only records for suppressed no-op deliveries.
	Appends     uint64 `json:"appends"`
	NoopAppends uint64 `json:"noop_appends"`
	// BytesAppended is the total bytes written to segment files.
	BytesAppended uint64 `json:"bytes_appended"`
	// Fsyncs counts file syncs; BatchedSyncs counts syncer passes that
	// flushed at least one dirty log (Fsync == FsyncBatch only).
	Fsyncs       uint64 `json:"fsyncs"`
	BatchedSyncs uint64 `json:"batched_syncs"`
	// Rotations counts segment rollovers; TruncatedSegments counts
	// segments deleted by retention; Compactions counts the times
	// retention restated the newest snapshot as a checkpoint.
	Rotations         uint64 `json:"rotations"`
	TruncatedSegments uint64 `json:"truncated_segments"`
	Compactions       uint64 `json:"compactions"`
	// ReplayedRecords counts records read back during recovery;
	// TornRecords counts frames dropped as truncated or corrupt.
	ReplayedRecords uint64 `json:"replayed_records"`
	TornRecords     uint64 `json:"torn_records"`
	// AppendErrors counts failed appends; LastError is the most recent
	// failure (appends keep going — a full disk degrades durability,
	// not delivery).
	AppendErrors uint64 `json:"append_errors"`
	LastError    string `json:"last_error,omitempty"`
}

// Store is the root of the durable delivery state: one directory per
// wrapper, each holding WAL segments and JSON sidecars.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	logs   map[string]*Log
	closed bool

	// syncer state (FsyncBatch).
	stopSync chan struct{}
	syncDone chan struct{}

	appends     atomic.Uint64
	noops       atomic.Uint64
	bytes       atomic.Uint64
	fsyncs      atomic.Uint64
	batchSyncs  atomic.Uint64
	rotations   atomic.Uint64
	truncated   atomic.Uint64
	compactions atomic.Uint64
	replayed    atomic.Uint64
	torn        atomic.Uint64
	appendErrs  atomic.Uint64
	lastErrMu   sync.Mutex
	lastErrText string
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts.withDefaults(), logs: map[string]*Log{}}
	if s.opts.Fsync == FsyncBatch {
		s.stopSync = make(chan struct{})
		s.syncDone = make(chan struct{})
		go s.syncLoop()
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validName rejects names that would escape the store directory.
func validName(name string) error {
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, `/\`) {
		return fmt.Errorf("resultlog: invalid wrapper name %q", name)
	}
	return nil
}

// Names lists the wrappers with on-disk state, sorted.
func (s *Store) Names() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Log opens (or creates) the named wrapper's log. Repeated calls
// return the same *Log.
func (s *Store) Log(name string) (*Log, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("resultlog: store closed")
	}
	if l, ok := s.logs[name]; ok {
		return l, nil
	}
	l, err := openLog(s, filepath.Join(s.dir, name))
	if err != nil {
		return nil, err
	}
	s.logs[name] = l
	return l, nil
}

// Remove closes and deletes all state for one wrapper (a retired
// dynamic wrapper's history does not outlive its registration).
func (s *Store) Remove(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	s.mu.Lock()
	l := s.logs[name]
	delete(s.logs, name)
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	return os.RemoveAll(filepath.Join(s.dir, name))
}

// SaveMeta atomically writes v as indented JSON to the named sidecar
// file (write to a temp file, fsync, rename) in the wrapper's dir.
func (s *Store) SaveMeta(name, file string, v any) error {
	if err := validName(name); err != nil {
		return err
	}
	if err := validName(file); err != nil {
		return err
	}
	dir := filepath.Join(s.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, file+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if s.opts.Fsync != FsyncOff {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, file))
}

// LoadMeta reads a sidecar written by SaveMeta. A missing file returns
// os.ErrNotExist.
func (s *Store) LoadMeta(name, file string, v any) error {
	if err := validName(name); err != nil {
		return err
	}
	data, err := os.ReadFile(filepath.Join(s.dir, name, file))
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// Sync flushes every open log to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	logs := make([]*Log, 0, len(s.logs))
	for _, l := range s.logs {
		logs = append(logs, l)
	}
	s.mu.Unlock()
	var first error
	for _, l := range logs {
		if err := l.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops the batch syncer, flushes, and closes every log.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	logs := make([]*Log, 0, len(s.logs))
	for _, l := range s.logs {
		logs = append(logs, l)
	}
	s.mu.Unlock()
	if s.stopSync != nil {
		close(s.stopSync)
		<-s.syncDone
	}
	var first error
	for _, l := range logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// syncLoop is the batch syncer: every fsyncInterval it fsyncs the logs
// that appended since the last pass.
func (s *Store) syncLoop() {
	defer close(s.syncDone)
	t := time.NewTicker(fsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopSync:
			return
		case <-t.C:
			s.mu.Lock()
			logs := make([]*Log, 0, len(s.logs))
			for _, l := range s.logs {
				logs = append(logs, l)
			}
			s.mu.Unlock()
			flushed := false
			for _, l := range logs {
				if l.dirty.Swap(false) {
					l.Sync()
					flushed = true
				}
			}
			if flushed {
				s.batchSyncs.Add(1)
			}
		}
	}
}

func (s *Store) noteErr(err error) {
	s.appendErrs.Add(1)
	s.lastErrMu.Lock()
	s.lastErrText = err.Error()
	s.lastErrMu.Unlock()
}

// Stats returns the store-wide counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	wrappers := len(s.logs)
	segs := 0
	for _, l := range s.logs {
		l.mu.Lock()
		segs += len(l.closedSegs)
		if l.active != nil {
			segs++
		}
		l.mu.Unlock()
	}
	s.mu.Unlock()
	s.lastErrMu.Lock()
	lastErr := s.lastErrText
	s.lastErrMu.Unlock()
	return Stats{
		Wrappers:          wrappers,
		Segments:          segs,
		Appends:           s.appends.Load(),
		NoopAppends:       s.noops.Load(),
		BytesAppended:     s.bytes.Load(),
		Fsyncs:            s.fsyncs.Load(),
		BatchedSyncs:      s.batchSyncs.Load(),
		Rotations:         s.rotations.Load(),
		TruncatedSegments: s.truncated.Load(),
		Compactions:       s.compactions.Load(),
		ReplayedRecords:   s.replayed.Load(),
		TornRecords:       s.torn.Load(),
		AppendErrors:      s.appendErrs.Load(),
		LastError:         lastErr,
	}
}

// ---------------------------------------------------------------------
// Per-wrapper log.

// segInfo indexes one closed segment for cursor reads and retention.
type segInfo struct {
	id       uint64
	path     string
	size     int64
	firstVer uint64 // 0 when the segment holds no decodable records
	lastVer  uint64
	doc      bool // holds a snapshot or checkpoint record
}

// Log is one wrapper's append-only record sequence, split across
// rotated segment files.
type Log struct {
	store *Store
	dir   string

	mu         sync.Mutex
	closedSegs []segInfo
	active     *os.File
	activeInfo segInfo
	lastVer    uint64
	closed     bool

	dirty atomic.Bool // appended since the last fsync
}

// segName formats a segment file name.
func segName(id uint64) string { return fmt.Sprintf("%08d.wal", id) }

// openLog opens a wrapper directory, indexes its segments (scanning
// each once to find version bounds and the true record-aligned size),
// and opens the newest segment for appending.
func openLog(s *Store, dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	for _, e := range entries {
		var id uint64
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".wal") {
			continue
		}
		if _, err := fmt.Sscanf(e.Name(), "%08d.wal", &id); err != nil || id == 0 {
			continue
		}
		segs = append(segs, segInfo{id: id, path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].id < segs[j].id })
	l := &Log{store: s, dir: dir}
	for i := range segs {
		if err := l.indexSegment(&segs[i]); err != nil {
			return nil, err
		}
	}
	nextID := uint64(1)
	if n := len(segs); n > 0 {
		nextID = segs[n-1].id
		l.lastVer = segs[n-1].lastVer
		for _, seg := range segs {
			if seg.lastVer > l.lastVer {
				l.lastVer = seg.lastVer
			}
		}
		l.closedSegs = segs[:n-1]
		l.activeInfo = segs[n-1]
	} else {
		l.activeInfo = segInfo{id: nextID, path: filepath.Join(dir, segName(nextID))}
	}
	// Truncate a torn tail away so appends start on a record boundary.
	f, err := os.OpenFile(l.activeInfo.path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(l.activeInfo.size); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	l.active = f
	return l, nil
}

// indexSegment scans one segment, filling its version bounds and its
// record-aligned size (bytes past the last good record are torn).
func (l *Log) indexSegment(seg *segInfo) error {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return err
	}
	off := 0
	for off < len(data) {
		rec, n, err := DecodeRecord(data[off:])
		if err != nil {
			l.store.torn.Add(1)
			break
		}
		if seg.firstVer == 0 {
			seg.firstVer = rec.Version
		}
		seg.lastVer = rec.Version
		seg.doc = seg.doc || rec.Kind != KindNoop
		off += n
	}
	seg.size = int64(off)
	return nil
}

// LastVersion returns the newest logged delivery version (0 when the
// log is empty).
func (l *Log) LastVersion() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastVer
}

// Append writes one record. The write reaches the OS before Append
// returns; whether it reaches the platter too depends on the store's
// fsync mode. Versions must be strictly increasing.
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("resultlog: log closed")
	}
	if rec.Version <= l.lastVer {
		return fmt.Errorf("resultlog: version %d not after %d", rec.Version, l.lastVer)
	}
	if rec.Time == 0 {
		rec.Time = time.Now().UnixNano()
	}
	n, err := l.writeLocked(rec)
	if err != nil {
		return err
	}
	if rec.Kind == KindNoop {
		l.store.noops.Add(1)
	} else {
		l.store.appends.Add(1)
	}
	l.store.bytes.Add(uint64(n))
	switch l.store.opts.Fsync {
	case FsyncAlways:
		if err := l.active.Sync(); err != nil {
			l.store.noteErr(err)
			return err
		}
		l.store.fsyncs.Add(1)
	case FsyncBatch:
		l.dirty.Store(true)
	}
	if l.activeInfo.size >= l.store.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.store.noteErr(err)
			return err
		}
	}
	return nil
}

// frameScratch recycles the buffers records are framed in, shared by
// every log: a log keeps no frame between appends, so the published
// XML a record carries is not held a second time per wrapper.
var frameScratch = sync.Pool{New: func() any { return new([]byte) }}

// writeLocked frames rec into pooled scratch, writes it to the active
// segment in one write, and advances the segment's bounds. It returns
// the frame's length.
func (l *Log) writeLocked(rec Record) (int, error) {
	p := frameScratch.Get().(*[]byte)
	frame := AppendRecord((*p)[:0], rec)
	_, err := l.active.Write(frame)
	*p = frame
	frameScratch.Put(p)
	if err != nil {
		l.store.noteErr(err)
		return 0, err
	}
	if l.activeInfo.firstVer == 0 {
		l.activeInfo.firstVer = rec.Version
	}
	l.activeInfo.lastVer = rec.Version
	l.activeInfo.doc = l.activeInfo.doc || rec.Kind != KindNoop
	l.activeInfo.size += int64(len(frame))
	l.lastVer = rec.Version
	return len(frame), nil
}

// rotateLocked closes the active segment, opens the next one, and
// applies retention to the closed set.
func (l *Log) rotateLocked() error {
	if l.store.opts.Fsync != FsyncOff {
		if err := l.active.Sync(); err != nil {
			return err
		}
		l.store.fsyncs.Add(1)
	}
	if err := l.active.Close(); err != nil {
		return err
	}
	l.closedSegs = append(l.closedSegs, l.activeInfo)
	next := segInfo{id: l.activeInfo.id + 1}
	next.path = filepath.Join(l.dir, segName(next.id))
	f, err := os.OpenFile(next.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.active = f
	l.activeInfo = next
	l.store.rotations.Add(1)
	l.truncateLocked()
	return nil
}

// truncateLocked deletes the oldest closed segments beyond the count
// cap. When the newest snapshot is in one of them, it is first restated
// as a checkpoint in the (fresh) active segment, and every closed
// segment goes: those after it hold only no-ops repeating it. A failed
// checkpoint deletes nothing; the next rotation tries again.
func (l *Log) truncateLocked() {
	drop := len(l.closedSegs) + 1 - l.store.opts.MaxSegments
	if drop <= 0 {
		return
	}
	for i := len(l.closedSegs) - 1; i >= 0; i-- {
		if !l.closedSegs[i].doc {
			continue
		}
		if i < drop {
			if err := l.checkpointLocked(l.closedSegs[i]); err != nil {
				return
			}
			drop = len(l.closedSegs)
		}
		break
	}
	for _, seg := range l.closedSegs[:drop] {
		os.Remove(seg.path)
		l.store.truncated.Add(1)
	}
	l.closedSegs = append([]segInfo(nil), l.closedSegs[drop:]...)
}

// checkpointLocked re-reads the newest snapshot or checkpoint record in
// seg (the log keeps no copy between appends) and restates it as a
// KindCheckpoint at the log's last version in the active segment,
// fsynced unless the store runs FsyncOff, so the caller can delete seg.
// A failure is counted in the store's stats.
func (l *Log) checkpointLocked(seg segInfo) error {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		l.store.noteErr(err)
		return err
	}
	data = data[:min(int64(len(data)), seg.size)]
	var doc Record
	for off := 0; off < len(data); {
		rec, n, err := DecodeRecord(data[off:])
		if err != nil {
			break
		}
		if rec.Kind != KindNoop {
			doc = rec
		}
		off += n
	}
	if doc.Kind == 0 {
		err := fmt.Errorf("resultlog: no snapshot left in %s", seg.path)
		l.store.noteErr(err)
		return err
	}
	n, err := l.writeLocked(Record{Kind: KindCheckpoint, Version: l.lastVer,
		Time: time.Now().UnixNano(), Fingerprint: doc.Fingerprint, XML: doc.XML})
	if err != nil {
		return err // counted by writeLocked
	}
	l.store.appends.Add(1)
	l.store.bytes.Add(uint64(n))
	if l.store.opts.Fsync != FsyncOff {
		if err := l.active.Sync(); err != nil {
			l.store.noteErr(err)
			return err
		}
		l.store.fsyncs.Add(1)
	}
	l.store.compactions.Add(1)
	return nil
}

// Sync flushes the active segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.active == nil {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		l.store.noteErr(err)
		return err
	}
	l.store.fsyncs.Add(1)
	return nil
}

// Close flushes and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.active == nil {
		return nil
	}
	if l.store.opts.Fsync != FsyncOff {
		l.active.Sync()
	}
	return l.active.Close()
}

// segments snapshots the segment list, oldest first, active last.
func (l *Log) segments() []segInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]segInfo(nil), l.closedSegs...)
	if l.activeInfo.size > 0 || l.activeInfo.firstVer > 0 {
		out = append(out, l.activeInfo)
	}
	return out
}

// Replay streams every decodable record oldest→newest. A torn or
// corrupt frame ends that segment's replay (counted) but later
// segments still replay; fn returning an error aborts.
func (l *Log) Replay(fn func(Record) error) error {
	return l.replayFrom(0, fn)
}

// Since streams the records with Version > after, oldest→newest —
// the cursor read behind every history read. Segments wholly at or
// before the cursor are skipped without being read. Versions are
// strictly increasing; they jump where retention deleted records,
// including deletions that race the read itself.
func (l *Log) Since(after uint64, fn func(Record) error) error {
	return l.replayFrom(after, fn)
}

// FirstVersion returns the oldest version the log still holds: the
// first record of its oldest segment (0 when the log is empty).
func (l *Log) FirstVersion() uint64 {
	for _, seg := range l.segments() {
		if seg.firstVer > 0 {
			return seg.firstVer
		}
	}
	return 0
}

func (l *Log) replayFrom(after uint64, fn func(Record) error) error {
	segs := l.segments()
	for i := 0; i < len(segs); i++ {
		seg := segs[i]
		if seg.lastVer <= after {
			continue
		}
		data, err := os.ReadFile(seg.path)
		if errors.Is(err, fs.ErrNotExist) {
			// Retention deleted the segment after the list was taken.
			// Deletion only ever takes the oldest segments, so re-list and
			// resume after the last version yielded: the next record is
			// the oldest survivor (perhaps a checkpoint).
			if fresh := l.segments(); len(fresh) > 0 && fresh[0].id > seg.id {
				segs, i = fresh, -1
				continue
			}
		}
		if err != nil {
			return err
		}
		if int64(len(data)) > seg.size {
			data = data[:seg.size]
		}
		off := 0
		for off < len(data) {
			rec, n, err := DecodeRecord(data[off:])
			if err != nil {
				l.store.torn.Add(1)
				break
			}
			off += n
			l.store.replayed.Add(1)
			if rec.Version <= after {
				continue
			}
			if err := fn(rec); err != nil {
				return err
			}
			after = rec.Version
		}
	}
	return nil
}
