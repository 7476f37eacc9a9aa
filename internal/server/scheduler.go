package server

import (
	"sync"
	"time"
)

// pipeState is one scheduled pipeline plus its run-time counters. Ticks
// are executed by the sharded scheduler's worker pool (see sched.go),
// which guarantees a pipeline never ticks concurrently with itself;
// HTTP handlers read the counters under the mutex.
type pipeState struct {
	p    Pipeline
	name string

	// dynamic pipelines were registered through the /v1 API at runtime
	// and may be deregistered again; onDemand ones never tick on a
	// schedule (extraction is driven by POST .../extract only).
	dynamic bool
	// entry is the pipeline's slot in the scheduler's deadline heap
	// (nil before Run and for on-demand pipelines); guarded by the
	// server mutex.
	entry *schedEntry

	mu          sync.Mutex
	interval    time.Duration
	onDemand    bool
	ticks       uint64
	errs        uint64
	lastErr     string
	lastTick    time.Time
	lastLatency time.Duration

	// deliver is the pipeline's delivery plane (delivery.go): the
	// delivery log, the published encode-once snapshot, the
	// conditional-GET counters, and the SSE watch hub. Read handlers reach it through the lock-free
	// registry (Server.readPipe), never through s.mu.
	deliver delivery

	// hooks is the pipeline's outbound webhook registry (webhook.go);
	// wired to the delivery plane by Server.initPipe so publishes nudge
	// the dispatchers.
	hooks hookSet
}

// tickOnce runs one tick and records it, stamped on clk. The latency
// measures work, so it is taken on real time.
func (ps *pipeState) tickOnce(clk clock) {
	start := time.Now()
	err := ps.p.Tick()
	elapsed := time.Since(start)
	ps.mu.Lock()
	ps.ticks++
	ps.lastTick = clk.Now()
	ps.lastLatency = elapsed
	if err != nil {
		ps.errs++
		ps.lastErr = err.Error()
	}
	ps.mu.Unlock()
}

// flags returns the mutable registration flags consistently.
func (ps *pipeState) flags() (dynamic, onDemand bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.dynamic, ps.onDemand
}

func (ps *pipeState) status(name string) PipelineStatus {
	delivered, retained, resident := ps.deliver.head(), ps.deliver.retained(), ps.deliver.snapshotBytes()
	ps.mu.Lock()
	defer ps.mu.Unlock()
	st := PipelineStatus{
		Name:          name,
		IntervalMS:    ps.interval.Milliseconds(),
		Ticks:         ps.ticks,
		Errors:        ps.errs,
		LastError:     ps.lastErr,
		LastLatencyMS: float64(ps.lastLatency.Microseconds()) / 1000,
		Delivered:     int(delivered),
		Retained:      retained,
		SnapshotBytes: resident,
	}
	if !ps.lastTick.IsZero() {
		st.LastTick = ps.lastTick.UTC().Format(time.RFC3339Nano)
	}
	if es, ok := ps.p.(ExtractionStatser); ok {
		stats := es.ExtractionStats()
		// The splice encoder lives with the delivery plane, not the
		// wrapper source; merge its counter into the extraction block so
		// /statusz and GET /v1/wrappers show the whole incremental tick.
		stats.EncodeSplicedBytes = ps.deliver.splicedBytes()
		st.Extraction = &stats
	}
	return st
}
