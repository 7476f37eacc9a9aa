package server

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// sched is the sharded timer-heap scheduler: a small fixed set of
// shard goroutines each own a min-heap of next-fire deadlines, and due
// pipelines are dispatched into a bounded worker pool. The goroutine
// count is O(shards + workers) regardless of how many pipelines are
// registered — the per-pipeline ticker goroutines this replaces scaled
// O(pipelines).
//
// Overlap protection: a pipeline whose previous tick is still queued
// or running when its deadline fires is not dispatched again (a tick
// never runs concurrently with itself); the miss is counted as a late
// tick and the deadline advances one interval. A full dispatch queue
// counts a dropped tick and retries on a short backoff instead of
// blocking the shard (backpressure never stalls unrelated pipelines
// on the same shard).
type sched struct {
	clk      clock
	workers  int
	queue    chan *schedEntry
	shards   []*shard
	stopping chan struct{}

	shardWg  sync.WaitGroup
	workerWg sync.WaitGroup
	stopped  atomic.Bool

	dispatched atomic.Uint64
	late       atomic.Uint64
	dropped    atomic.Uint64
	busy       atomic.Int64
}

// Entry execution states, guarded by the owning shard's mutex.
const (
	entryIdle    = iota // schedulable
	entryQueued         // sitting in the dispatch queue
	entryRunning        // tick in flight on a worker
)

// schedEntry is one scheduled pipeline's heap slot. All mutable fields
// are guarded by sh.mu.
type schedEntry struct {
	ps *pipeState
	sh *shard

	interval time.Duration
	when     time.Time
	idx      int // heap position, -1 when popped
	state    int
	removed  bool
}

// shard owns one deadline heap and the goroutine draining it. Its
// timer is armed for the heap's earliest deadline, and stopped while
// the heap is empty, under mu by whoever changed the heap.
type shard struct {
	s     *sched
	mu    sync.Mutex
	cond  *sync.Cond // broadcast when an entry returns to entryIdle
	heap  entryHeap
	timer timer
}

// schedShape is the scheduler's fixed shape: 4 timer shards, a worker
// per CPU (at least 4), and a dispatch queue of 16 slots per worker (at
// least 256). A full queue counts dropped ticks on /statusz.
func schedShape() (shards, workers, queue int) {
	workers = max(4, runtime.GOMAXPROCS(0))
	return 4, workers, max(256, 16*workers)
}

// newSched starts the shard and worker goroutines immediately.
func newSched(clk clock) *sched {
	shards, workers, queue := schedShape()
	s := &sched{
		clk:      clk,
		workers:  workers,
		queue:    make(chan *schedEntry, queue),
		stopping: make(chan struct{}),
	}
	for i := 0; i < shards; i++ {
		sh := &shard{s: s, timer: clk.NewTimer(time.Hour)}
		sh.timer.Stop()
		sh.cond = sync.NewCond(&sh.mu)
		s.shards = append(s.shards, sh)
		s.shardWg.Add(1)
		go sh.loop()
	}
	for i := 0; i < workers; i++ {
		s.workerWg.Add(1)
		go s.worker()
	}
	return s
}

// schedule adds a pipeline firing first at the given time, sharded by
// name so reschedules and removals find a stable owner.
func (s *sched) schedule(ps *pipeState, name string, interval time.Duration, first time.Time) *schedEntry {
	sh := s.shards[fnv32(name)%uint32(len(s.shards))]
	e := &schedEntry{ps: ps, sh: sh, interval: interval, when: first, idx: -1}
	sh.mu.Lock()
	heap.Push(&sh.heap, e)
	sh.armLocked()
	sh.mu.Unlock()
	return e
}

// reschedule moves a live entry to a new cadence; the next fire is one
// new interval from now.
func (s *sched) reschedule(e *schedEntry, interval time.Duration) {
	sh := e.sh
	sh.mu.Lock()
	e.interval = interval
	if !e.removed {
		e.when = s.clk.Now().Add(interval)
		if e.idx >= 0 {
			heap.Fix(&sh.heap, e.idx)
		} else {
			heap.Push(&sh.heap, e)
		}
		sh.armLocked()
	}
	sh.mu.Unlock()
}

// remove unschedules an entry and blocks until any queued or in-flight
// tick of it has drained, so callers observe the old
// cancel-and-wait-for-done semantics.
func (s *sched) remove(e *schedEntry) {
	sh := e.sh
	sh.mu.Lock()
	e.removed = true
	if e.idx >= 0 {
		heap.Remove(&sh.heap, e.idx)
		sh.armLocked()
	}
	for e.state != entryIdle {
		sh.cond.Wait()
	}
	sh.mu.Unlock()
}

// stopAndDrain stops the shard goroutines, then closes the dispatch
// queue and waits for the workers to finish every already-queued tick.
func (s *sched) stopAndDrain() {
	if !s.stopped.CompareAndSwap(false, true) {
		return
	}
	close(s.stopping)
	s.shardWg.Wait() // no sender left
	close(s.queue)
	s.workerWg.Wait()
}

// SchedulerStatus is the /statusz "scheduler" block: pool shape plus
// the backpressure counters.
type SchedulerStatus struct {
	Shards            int     `json:"shards"`
	Workers           int     `json:"workers"`
	Scheduled         int     `json:"scheduled"`
	QueueDepth        int     `json:"queue_depth"`
	QueueCapacity     int     `json:"queue_capacity"`
	BusyWorkers       int     `json:"busy_workers"`
	WorkerUtilization float64 `json:"worker_utilization"`
	Dispatched        uint64  `json:"dispatched"`
	LateTicks         uint64  `json:"late_ticks"`
	DroppedTicks      uint64  `json:"dropped_ticks"`
}

func (s *sched) status() SchedulerStatus {
	scheduled := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		scheduled += len(sh.heap)
		sh.mu.Unlock()
	}
	busy := int(s.busy.Load())
	return SchedulerStatus{
		Shards:            len(s.shards),
		Workers:           s.workers,
		Scheduled:         scheduled,
		QueueDepth:        len(s.queue),
		QueueCapacity:     cap(s.queue),
		BusyWorkers:       busy,
		WorkerUtilization: float64(busy) / float64(s.workers),
		Dispatched:        s.dispatched.Load(),
		LateTicks:         s.late.Load(),
		DroppedTicks:      s.dropped.Load(),
	}
}

func (s *sched) worker() {
	defer s.workerWg.Done()
	for e := range s.queue {
		sh := e.sh
		sh.mu.Lock()
		if e.removed {
			e.state = entryIdle
			sh.cond.Broadcast()
			sh.mu.Unlock()
			continue
		}
		e.state = entryRunning
		sh.mu.Unlock()

		s.busy.Add(1)
		e.ps.tickOnce(s.clk)
		s.busy.Add(-1)
		s.dispatched.Add(1)

		sh.mu.Lock()
		e.state = entryIdle
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
}

// loop dispatches the shard's due entries each time its timer fires,
// until the scheduler stops.
func (sh *shard) loop() {
	defer sh.s.shardWg.Done()
	defer sh.timer.Stop()
	for {
		select {
		case <-sh.s.stopping:
			return
		case <-sh.timer.C():
		}
		sh.mu.Lock()
		now := sh.s.clk.Now()
		for len(sh.heap) > 0 && !sh.heap[0].when.After(now) {
			e := sh.heap[0]
			if e.state != entryIdle {
				// Overlap protection: the previous tick is still queued
				// or running, so this deadline is skipped.
				sh.s.late.Add(1)
				e.when = now.Add(e.interval)
				heap.Fix(&sh.heap, 0)
				continue
			}
			select {
			case sh.s.queue <- e:
				e.state = entryQueued
				e.when = now.Add(e.interval)
			default:
				// Queue full: record the drop and retry soon rather than
				// blocking the whole shard behind the worker pool.
				sh.s.dropped.Add(1)
				e.when = now.Add(retryDelay(e.interval))
			}
			heap.Fix(&sh.heap, 0)
		}
		sh.armLocked()
		sh.mu.Unlock()
	}
}

// armLocked points the shard's timer at its earliest deadline, or
// stops it when the heap is empty. Callers hold sh.mu.
func (sh *shard) armLocked() {
	if len(sh.heap) == 0 {
		sh.timer.Stop()
		return
	}
	sh.timer.Reset(max(0, sh.heap[0].when.Sub(sh.s.clk.Now())))
}

// retryDelay is the backoff before re-attempting a dispatch that found
// the queue full: a quarter interval, clamped to [5ms, 1s].
func retryDelay(interval time.Duration) time.Duration {
	d := interval / 4
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// fnv32 hashes a pipeline name onto its shard.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// entryHeap is a min-heap on the next-fire deadline.
type entryHeap []*schedEntry

func (h entryHeap) Len() int           { return len(h) }
func (h entryHeap) Less(i, j int) bool { return h[i].when.Before(h[j].when) }
func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}

func (h *entryHeap) Push(x any) {
	e := x.(*schedEntry)
	e.idx = len(*h)
	*h = append(*h, e)
}

func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}
