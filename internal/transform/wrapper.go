package transform

import (
	"fmt"

	"repro/internal/elog"
	"repro/internal/fetchcache"
	"repro/pkg/lixto"
)

// NewWrapperSource builds a wrapper source polling a compiled SDK
// wrapper: ticks and any other extraction through w share its match
// caches and its output cache.
func NewWrapperSource(name string, w *lixto.Wrapper, f elog.Fetcher) *WrapperSource {
	return &WrapperSource{CompName: name, Fetcher: f, Wrapper: w}
}

// NewWrapperEngineBatched wires the minimal single-wrapper information
// pipe — one wrapper source feeding one collector — from a compiled SDK
// wrapper; this is the engine behind the server's dynamically
// registered /v1 wrappers. The emitted documents carry no source
// attribute, so each delivery is byte-identical to running the same
// program through the SDK. When cache, a shared fetch/document cache,
// is not nil, f is wrapped by it once here, so thousands of wrappers
// monitoring the same pages share one fetch+parse per page. The source
// attaches to batch, a fleet-shared match cache, when that is not nil:
// wrappers sharing one reuse each other's compiled pattern matches on
// identical paths and unchanged pages — the match-side counterpart of
// the shared fetch layer.
func NewWrapperEngineBatched(name string, w *lixto.Wrapper, f elog.Fetcher, cache *fetchcache.Cache, batch *elog.MatchCache) (*Engine, *Collector, error) {
	if cache != nil && f != nil {
		f = cache.Wrap(f)
	}
	e := NewEngine()
	src := NewWrapperSource(name, w, f)
	src.NoSourceAttr = true
	src.Batch = batch
	out := &Collector{CompName: name + ".out"}
	if err := e.Add(src); err != nil {
		return nil, nil, err
	}
	if err := e.Add(out); err != nil {
		return nil, nil, err
	}
	if err := e.Connect(src.CompName, out.CompName); err != nil {
		return nil, nil, fmt.Errorf("transform: wiring wrapper engine %s: %w", name, err)
	}
	return e, out, nil
}
