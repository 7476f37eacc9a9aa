package transform

import (
	"fmt"

	"repro/internal/elog"
	"repro/internal/fetchcache"
	"repro/pkg/lixto"
)

// NewWrapperSource builds a wrapper source polling a compiled SDK
// wrapper: ticks and any other extraction through w share its match
// caches and its output cache. An optional shared fetch cache (see
// WrapperSource.Shared) can be set on the returned source before its
// first poll.
func NewWrapperSource(name string, w *lixto.Wrapper, f elog.Fetcher) *WrapperSource {
	return &WrapperSource{CompName: name, Fetcher: f, Wrapper: w}
}

// NewWrapperEngine wires the minimal single-wrapper information pipe —
// one wrapper source feeding one collector — from a compiled SDK
// wrapper. The emitted documents carry no source attribute, so each
// delivery is byte-identical to running the same program through the
// SDK; this is the engine behind the server's dynamically registered
// /v1 wrappers.
func NewWrapperEngine(name string, w *lixto.Wrapper, f elog.Fetcher) (*Engine, *Collector, error) {
	return NewWrapperEngineCached(name, w, f, nil)
}

// NewWrapperEngineCached is NewWrapperEngine with the wrapper source
// polling through a shared fetch/document cache (nil behaves exactly
// like NewWrapperEngine): the server threads its process-wide cache
// through here so that thousands of dynamically registered wrappers
// monitoring the same pages share one fetch+parse per page.
func NewWrapperEngineCached(name string, w *lixto.Wrapper, f elog.Fetcher, cache *fetchcache.Cache) (*Engine, *Collector, error) {
	return NewWrapperEngineBatched(name, w, f, cache, nil)
}

// NewWrapperEngineBatched is NewWrapperEngineCached with the wrapper
// source additionally attached to a fleet-shared match cache (nil
// disables batching): wrappers sharing one batch cache reuse each
// other's compiled pattern matches on identical paths and unchanged
// pages — the match-side counterpart of the shared fetch layer.
func NewWrapperEngineBatched(name string, w *lixto.Wrapper, f elog.Fetcher, cache *fetchcache.Cache, batch *elog.MatchCache) (*Engine, *Collector, error) {
	e := NewEngine()
	src := NewWrapperSource(name, w, f)
	src.NoSourceAttr = true
	src.Shared = cache
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
