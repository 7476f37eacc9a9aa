package server

import (
	"fmt"
	"os"
	"time"

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
// delivery version back (its history is the log itself); wrappers that were registered dynamically are
// recompiled from their persisted specs and re-registered (without the
// synchronous validation tick — their last good result is already
// restored); webhook registrations resume from their durable cursors.
// Call after registering static pipelines and before Run. It returns
// the number of wrappers restored from disk.
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
			if err := s.restoreDynamic(spec); err != nil {
				s.cfg.Logf("server: restore: wrapper %q: %v", name, err)
				continue
			}
			ps = s.pipe(name)
			if ps == nil {
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

// restoreDynamic recompiles and re-registers one dynamic wrapper from
// its persisted spec, skipping the synchronous validation tick (the
// wrapper proved itself before the restart; its results are about to
// be rehydrated). Restore runs before Run, so the pipeline starts
// ticking when the scheduler does.
func (s *Server) restoreDynamic(spec wrapperSpec) error {
	if !validName(spec.Name) {
		return fmt.Errorf("invalid persisted wrapper name %q", spec.Name)
	}
	lw, fetcher, err := s.compileSpec(spec.Program, spec.Root, spec.Auxiliary, spec.HTML)
	if err != nil {
		return err
	}
	d, err := newDynPipeline(spec.Name, lw, fetcher, s.cfg.MatchCache)
	if err != nil {
		return err
	}
	interval := time.Duration(spec.IntervalMS) * time.Millisecond
	onDemand := spec.IntervalMS <= 0
	if interval <= 0 {
		interval = s.cfg.DefaultInterval
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return fmt.Errorf("server: %w", errShuttingDown)
	}
	if _, dup := s.pipes[spec.Name]; dup {
		return fmt.Errorf("server: %w %q", errDuplicatePipeline, spec.Name)
	}
	ps := &pipeState{p: d, name: spec.Name, interval: interval, dynamic: true, onDemand: onDemand}
	if err := s.initPipe(ps); err != nil {
		return err
	}
	s.pipes[spec.Name] = ps
	s.order = append(s.order, spec.Name)
	s.readPipes.Store(spec.Name, ps)
	if s.started {
		s.startLocked(ps)
	}
	s.cfg.Logf("server: restored dynamic pipeline %q (interval %s, on-demand %v)", spec.Name, interval, onDemand)
	return nil
}

// PersistenceStatus returns the result store's counters, or a zero
// value when persistence is not configured. Appears as the
// "persistence" block on /statusz and GET /v1/wrappers.
func (s *Server) PersistenceStatus() resultlog.Stats {
	if s.cfg.ResultStore == nil {
		return resultlog.Stats{}
	}
	return s.cfg.ResultStore.Stats()
}
