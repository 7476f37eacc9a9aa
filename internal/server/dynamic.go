package server

import (
	"time"

	"repro/internal/transform"
	"repro/pkg/lixto"
)

// dynPipeline is a wrapper compiled and registered at runtime through
// POST /v1/wrappers: a single-wrapper transform engine (source →
// collector) driving the scheduled path, plus the SDK wrapper itself
// for synchronous one-shot extractions. The engine's source polls
// through that same wrapper, so both paths share one compiled program
// and one output cache.
type dynPipeline struct {
	// spec is the registration it was built from; the server persists
	// it, with the live cadence, for Restore.
	spec wrapperSpec
	w    *lixto.Wrapper
	eng  *transform.Engine
	out  *transform.Collector
}

// newDynamic builds a dynamic wrapper's pipeline from its spec, for
// the /v1 POST and for Restore alike: it compiles the program, resolves
// its fetcher — the inline page when given, else the server's dynamic
// fetcher (behind the shared cache when configured) — and wires the
// engine, attached to the server's fleet-shared match cache when one is
// configured. The returned error is a typed SDK error. Scheduling
// (interval vs on-demand) lives in the pipeState and may change over the
// pipeline's lifetime via PATCH.
//
// The wrapper is compiled with incremental output on, so one-shot
// extractions (POST .../extract) render through the same output cache
// as the scheduled ticks, reusing frozen output subtrees across page
// versions — safe here because the delivery plane never mutates
// delivered documents.
func (s *Server) newDynamic(spec wrapperSpec) (*pipeState, error) {
	lw, err := lixto.Compile(spec.Program, append(specOptions(spec.Root, spec.Auxiliary), lixto.WithIncrementalOutput(true))...)
	if err != nil {
		return nil, err
	}
	fetcher := s.dynamicFetcher()
	if spec.HTML != "" {
		// The inline page overlays the entry URLs; crawled links still
		// fall through to the dynamic fetcher when one is configured.
		if fetcher, err = lw.InlineFetcher(spec.HTML, fetcher); err != nil {
			return nil, err
		}
	} else if fetcher == nil {
		return nil, &lixto.Error{Kind: lixto.KindEval,
			Msg: "no dynamic fetcher configured; submit an inline html page"}
	}
	lw = lw.Rebind(lixto.WithFetcher(fetcher))
	eng, out, err := transform.NewWrapperEngineBatched(spec.Name, lw, fetcher, nil, s.cfg.MatchCache)
	if err != nil {
		return nil, err
	}
	return &pipeState{p: &dynPipeline{spec: spec, w: lw, eng: eng, out: out}, name: spec.Name,
		interval: time.Duration(spec.IntervalMS) * time.Millisecond, dynamic: true,
		onDemand: spec.IntervalMS <= 0}, nil
}

// PipeName implements Pipeline.
func (d *dynPipeline) PipeName() string { return d.spec.Name }

// Tick implements Pipeline: one engine activation round, reporting any
// error newly logged during the round.
func (d *dynPipeline) Tick() error {
	before := d.eng.ErrorCount()
	d.eng.Tick()
	if d.eng.ErrorCount() > before {
		return d.eng.LastError()
	}
	return nil
}

// Output implements Pipeline.
func (d *dynPipeline) Output() *transform.Collector { return d.out }

// Close detaches the pipeline's wrapper source from the fleet-shared
// match cache, so batch_size stops counting retired wrappers.
func (d *dynPipeline) Close() { d.eng.Close() }

// ExtractionStats implements ExtractionStatser. The wrapper source
// reports the SDK wrapper's output cache, which one-shot extractions
// render through as well.
func (d *dynPipeline) ExtractionStats() transform.ExtractionStats { return d.eng.ExtractionStats() }
