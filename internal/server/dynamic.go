package server

import (
	"repro/internal/elog"
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
	name string
	w    *lixto.Wrapper
	eng  *transform.Engine
	out  *transform.Collector
}

// newDynPipeline compiles nothing: it wires an already-compiled SDK
// wrapper into a schedulable pipeline, optionally attached to the
// server's fleet-shared match cache (nil batch disables batching).
// Scheduling (interval vs on-demand) lives in the server's pipeState
// and may change over the pipeline's lifetime via PATCH.
func newDynPipeline(name string, w *lixto.Wrapper, f elog.Fetcher, batch *elog.MatchCache) (*dynPipeline, error) {
	eng, out, err := transform.NewWrapperEngineBatched(name, w, f, nil, batch)
	if err != nil {
		return nil, err
	}
	return &dynPipeline{name: name, w: w, eng: eng, out: out}, nil
}

// PipeName implements Pipeline.
func (d *dynPipeline) PipeName() string { return d.name }

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
