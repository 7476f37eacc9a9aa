package server

import (
	"fmt"
	"os"

	"repro/internal/resultlog"
	"repro/internal/xmlenc"
)

// The persistence attachment: when Config.ResultStore is set, every
// pipeline's delivery log is its wrapper's append-only result log
// (internal/resultlog), so a delivery is on the log before any reader
// sees it. On restart, Restore rebuilds each published snapshot (ETag
// and all) and delivery version from the log's last snapshot record,
// and re-registers dynamic wrappers and webhook cursors, so reads and
// subscriptions continue byte-identically across a kill -9.

// specFile and hooksFile are the JSON sidecars written next to a
// wrapper's WAL segments.
const (
	specFile  = "spec.json"
	hooksFile = "webhooks.json"
)

// restore primes the delivery plane from its result log: the current
// snapshot is the last snapshot record, its stored bytes verbatim — so
// the ETag, the conditional-GET behavior, and the SSE cursor are
// identical to the pre-crash process — at the log's last version, and
// the next live delivery continues the log.
func (d *delivery) restore() error {
	if d.log == nil {
		return nil
	}
	var last resultlog.Record
	if err := d.log.Replay(func(rec resultlog.Record) error {
		if rec.Kind == resultlog.KindSnapshot || rec.Kind == resultlog.KindCheckpoint {
			last = rec
		}
		return nil
	}); err != nil {
		return err
	}
	if last.XML == nil {
		return nil // empty log
	}
	doc, err := xmlenc.Unmarshal(string(last.XML))
	if err != nil {
		return fmt.Errorf("version %d: %w", last.Version, err)
	}
	d.pubMu.Lock()
	defer d.pubMu.Unlock()
	sn := snapshotOf(doc, last.XML, last.Version, 1)
	d.last = d.log.LastVersion()
	sn.version.Store(d.last)
	d.seq.Store(1)
	d.cur.Store(sn)
	return nil
}

// Restore rehydrates the server from Config.ResultStore: every
// registered pipeline with logged history gets its snapshot and
// delivery version back (its history is the log itself); wrappers that
// were registered dynamically are rebuilt from their persisted specs and
// re-registered without the synchronous validation tick (they proved
// themselves before the restart, and their last good result is restored
// here); webhook registrations resume from their durable cursors. Call
// after registering static pipelines and before Run, so restored
// wrappers start ticking when the scheduler does. It returns the number
// of wrappers restored from disk.
func (s *Server) Restore() (int, error) {
	store := s.cfg.ResultStore
	if store == nil {
		return 0, nil
	}
	names, err := store.Names()
	if err != nil {
		return 0, err
	}
	restored := 0
	for _, name := range names {
		ps := s.pipe(name)
		if ps == nil {
			var spec wrapperSpec
			if err := store.LoadMeta(name, specFile, &spec); err != nil {
				if os.IsNotExist(err) {
					continue // state for a static pipeline not registered this run
				}
				return restored, err
			}
			if ps, err = s.newDynamic(spec); err == nil {
				err = s.insert(ps, false)
			}
			if err != nil {
				s.cfg.Logf("server: restore: wrapper %q: %v", name, err)
				continue
			}
		}
		if err := ps.deliver.restore(); err != nil {
			s.cfg.Logf("server: restore: wrapper %q: %v", name, err)
			continue
		}
		if err := ps.hooks.restore(); err != nil {
			s.cfg.Logf("server: restore: wrapper %q webhooks: %v", name, err)
		}
		restored++
	}
	return restored, nil
}
