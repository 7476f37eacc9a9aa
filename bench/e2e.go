package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/bench/upstream"
	"repro/internal/elog"
	"repro/internal/fetchcache"
	"repro/internal/resultlog"
	"repro/internal/server"
	"repro/internal/transform"
)

// e2eConfig sizes one end-to-end run.
type e2eConfig struct {
	w      workload
	seed   uint64
	window time.Duration // measured interval
	warmup time.Duration // load applied before the window opens
	thaw   time.Duration // frozen workloads: churn applied after it closes
	slices int           // the window is cut into this many slices
	setups int           // set-up is repeated this often; the median is reported
	tmp    string        // directory the WAL directories are created in
}

// e2eResult is everything one end-to-end run measured. The five
// end-to-end metrics are fields; diagnostics that only the traced
// command prints live in diag.
type e2eResult struct {
	setupS         float64
	tickCPUms      float64
	deliveryP50ms  float64
	readP50us      float64
	retainedHeapMB float64

	samples   map[string]int // sample count behind each timing
	diag      map[string]float64
	attempted int
	failures  []string // one line per failed operation class
	failed    int
	tolerated int // late or dropped ticks under maxShedShare: reported, not failed
}

func (r *e2eResult) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	r.failures = append(r.failures, fmt.Sprintf("%d × ", n)+fmt.Sprintf(format, args...))
}

// statusz is the part of GET /statusz the benchmark reads.
type statusz struct {
	Pipelines []struct {
		Name       string                     `json:"name"`
		Ticks      uint64                     `json:"ticks"`
		Errors     uint64                     `json:"errors"`
		LastError  string                     `json:"last_error"`
		Extraction *transform.ExtractionStats `json:"extraction"`
	} `json:"pipelines"`
	Scheduler   server.SchedulerStatus `json:"scheduler"`
	Delivery    server.DeliveryStatus  `json:"delivery"`
	SharedCache *fetchcache.Stats      `json:"shared_cache"`
	MatchCache  *elog.BatchStats       `json:"match_cache"`
	Persistence *resultlog.Stats       `json:"persistence"`
}

func (s statusz) ticks() (ticks, errs uint64) {
	for _, p := range s.Pipelines {
		ticks += p.Ticks
		errs += p.Errors
	}
	return
}

// instance is one running server with its upstream and its clients.
type instance struct {
	w     workload
	site  *upstream.Site
	fetch *siteFetcher
	dir   string
	store *resultlog.Store
	srv   *server.Server

	cancel context.CancelFunc
	runErr chan error
	base   string

	ctl         control
	loadClient  *http.Client // the poller's / the oneshot loop's connection
	watchClient *http.Client
	watchers    []*watcher

	registerLat []time.Duration
}

// startInstance is the timed set-up: store open, server ready, fleet
// registered with a first result each, clients connected.
func startInstance(w workload, seed uint64, tmp string) (in *instance, err error) {
	in = &instance{w: w, runErr: make(chan error, 1)}
	defer func() {
		if err != nil {
			in.stop()
			in = nil
		}
	}()
	if in.dir, err = os.MkdirTemp(tmp, "wal-"); err != nil {
		return
	}
	if in.store, err = resultlog.Open(in.dir, resultlog.Options{Fsync: resultlog.FsyncBatch}); err != nil {
		return
	}
	in.site = upstream.NewSite(seed, w.spec, w.urls()...)
	if w.frozen {
		in.site.Freeze()
	}
	in.fetch = &siteFetcher{site: in.site}
	// lixtoserver's defaults, except that the compile rate limit (60 a
	// minute, no flag) is lifted: a fleet registers faster than that.
	cfg := server.Config{
		Addr:                 "127.0.0.1:0",
		AllowDynamic:         true,
		DynamicFetcher:       in.fetch,
		MatchCache:           elog.NewMatchCacheSize(0),
		ResultStore:          in.store,
		MaxCompilesPerMinute: -1,
	}
	if w.sharedCache {
		cfg.SharedCache = fetchcache.New(1024, w.interval/2)
	}
	in.srv = server.New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	in.cancel = cancel
	go func() { in.runErr <- in.srv.Run(ctx) }()
	select {
	case <-in.srv.Ready():
	case err = <-in.runErr:
		in.runErr <- err
		return in, fmt.Errorf("server exited during start: %w", err)
	}
	in.base = "http://" + in.srv.Addr()
	in.ctl = control{client: newClient(1), base: in.base}

	for i := 0; i < w.fleet; i++ {
		t0 := time.Now()
		if err = in.ctl.register(w.wrapperName(i), w.pageURL(i), w.interval); err != nil {
			return
		}
		in.registerLat = append(in.registerLat, time.Since(t0))
	}
	in.loadClient = newClient(1)
	resp, err := in.loadClient.Get(in.base + "/healthz")
	if err != nil {
		return
	}
	resp.Body.Close()
	if !w.oneshot {
		in.watchClient = newClient(0)
		for i := 0; i < w.fleet; i++ {
			var wt *watcher
			if wt, err = startWatcher(in.watchClient, in.base, w.wrapperName(i), w.pageURL(i)); err != nil {
				return
			}
			in.watchers = append(in.watchers, wt)
		}
	}
	return in, nil
}

// stop tears the instance down and removes its files. Safe on a
// partially started instance.
func (in *instance) stop() error {
	for _, wt := range in.watchers {
		wt.stop()
	}
	in.watchers = nil
	var errs []error
	if in.cancel != nil {
		in.cancel()
		if err := <-in.runErr; err != nil {
			errs = append(errs, err)
		}
		in.cancel = nil
	}
	for _, c := range []*http.Client{in.ctl.client, in.loadClient, in.watchClient} {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	if in.store != nil {
		if err := in.store.Close(); err != nil {
			errs = append(errs, err)
		}
		in.store = nil
	}
	if in.dir != "" {
		if err := os.RemoveAll(in.dir); err != nil {
			errs = append(errs, err)
		}
		in.dir = ""
	}
	return errors.Join(errs...)
}

func (in *instance) names() []string {
	out := make([]string, in.w.fleet)
	for i := range out {
		out[i] = in.w.wrapperName(i)
	}
	return out
}

func (in *instance) statusz() (statusz, error) {
	var st statusz
	resp, body, err := in.ctl.do(http.MethodGet, "/statusz", nil, nil)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("statusz: status %d", resp.StatusCode)
	}
	return st, json.Unmarshal(body, &st)
}

// gcCPUSeconds is the runtime's estimate of CPU time spent in the
// garbage collector so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// utilSampler averages the scheduler's busy-worker share.
type utilSampler struct {
	srv  *server.Server
	stop chan struct{}
	done chan struct{}
	sum  float64
	n    int
}

func startUtilSampler(srv *server.Server) *utilSampler {
	u := &utilSampler{srv: srv, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(u.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-u.stop:
				return
			case <-t.C:
				u.sum += u.srv.SchedulerStatus().WorkerUtilization
				u.n++
			}
		}
	}()
	return u
}

func (u *utilSampler) mean() float64 {
	close(u.stop)
	<-u.done
	return ratio(u.sum, float64(u.n))
}

// runE2E is one end-to-end run: tracing off, the real scheduler, the
// /v1 API, the WAL and loopback sockets.
func runE2E(cfg e2eConfig) (*e2eResult, error) {
	w := cfg.w
	res := &e2eResult{samples: map[string]int{}, diag: map[string]float64{}}

	in, registers, err := setUp(cfg, res)
	if err != nil {
		return nil, err
	}
	defer in.stop()
	if err := in.spreadPhases(); err != nil {
		return nil, err
	}

	// Load on, warm up, measure.
	var poll *poller
	var loop *oneshotLoop
	if w.oneshot {
		loop = startOneshot(in.loadClient, in.base, in.site)
	} else {
		poll = startPoller(in.loadClient, in.base, in.names(), pollPeriod, cfg.seed)
	}
	time.Sleep(cfg.warmup)
	ws, err := in.measureWindow(cfg)
	if err != nil {
		return nil, err
	}

	// Quiesce: frozen workloads first get their churn, then every
	// upstream stops and the last ticks drain.
	if w.frozen {
		in.site.Thaw()
		time.Sleep(cfg.thaw)
	}
	if loop != nil {
		loop.stop() // finishes its cycle: every call still gets a new version
		in.site.Freeze()
	} else {
		in.site.Freeze()
		time.Sleep(2*w.interval + 50*time.Millisecond)
		if err := in.awaitIdle(10 * time.Second); err != nil {
			return nil, err
		}
		poll.stop()
	}
	stEnd, err := in.statusz()
	if err != nil {
		return nil, err
	}

	// Every wrapper's final served bytes, then the subscriptions end.
	finals := in.finalReads(res)
	var frames [][]frame
	for _, wt := range in.watchers {
		wt.stop()
		if wt.err != nil {
			res.fail(1, "watch %s: %v", wt.name, wt.err)
		}
		frames = append(frames, wt.frames)
	}
	res.retainedHeapMB = in.retainedHeap(res)

	done, err := res.cpuPerTick(ws, loop)
	if err != nil {
		return nil, err
	}
	res.deliveryMetrics(in, ws.win, frames, loop)
	if loop != nil {
		res.loopMetrics(ws.win, loop)
	} else {
		res.pollerMetrics(ws.win, poll, registers)
	}
	res.counterMetrics(in, ws, stEnd, float64(done), cfg.window)

	// The correctness gate: sampled frames and final bytes against the
	// non-incremental reference, computed now that the window is over.
	checked, err := verifyRun(res, newReference(cfg.seed, w.spec), in, frames, finals, loop)
	if err != nil {
		return nil, err
	}
	res.attempted += checked
	res.diag["failed_ratio"] = ratio(float64(res.failed+res.tolerated), float64(res.attempted))
	return res, in.stop()
}

// setUp runs the timed set-up cfg.setups times and keeps the last
// instance; it also returns every registration's latency.
func setUp(cfg e2eConfig, res *e2eResult) (*instance, []time.Duration, error) {
	var in *instance
	var setups []float64
	var registers []time.Duration
	for i := 0; i < cfg.setups; i++ {
		if in != nil {
			if err := in.stop(); err != nil {
				return nil, nil, fmt.Errorf("tear-down between set-ups: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		if in, err = startInstance(cfg.w, cfg.seed, cfg.tmp); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		registers = append(registers, in.registerLat...)
	}
	res.setupS, res.samples["setup_s"] = median(setups), len(setups)
	return in, registers, nil
}

// spreadPhases spreads the fleet's tick phases evenly over the
// interval. A fleet registered in a burst ticks at whatever phases the
// registration latencies left, and how many ticks then overlap differs
// from run to run; PATCH re-arms a wrapper's next fire one interval
// from the request, so sending the requests on a grid fixes the phases.
func (in *instance) spreadPhases() error {
	w := in.w
	if w.interval == 0 {
		return nil
	}
	grid := time.Now().Add(10 * time.Millisecond)
	for i, name := range in.names() {
		time.Sleep(time.Until(grid.Add(w.interval * time.Duration(i) / time.Duration(w.fleet))))
		if err := in.setInterval(name, w.interval); err != nil {
			return fmt.Errorf("spreading tick phases: %w", err)
		}
	}
	return nil
}

// awaitIdle returns once no tick is queued or running. Called after
// the upstream froze and two intervals passed, it makes sure the tick
// that fetched the final version has published even when the host
// stalled it (an fsync spike, a descheduled vCPU) beyond that wait.
func (in *instance) awaitIdle(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		if st := in.srv.SchedulerStatus(); st.BusyWorkers == 0 && st.QueueDepth == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ticks still running %s after the upstream froze", limit)
		}
		time.Sleep(time.Millisecond)
	}
}

func (in *instance) setInterval(name string, d time.Duration) error {
	resp, _, err := in.ctl.do(http.MethodPatch, "/v1/wrappers/"+name, map[string]any{"interval_ms": d.Milliseconds()}, nil)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("PATCH %s: status %d", name, resp.StatusCode)
	}
	return err
}

// windowSample is what the harness reads at the window's slice
// boundaries: process CPU and the server's tick count at every one,
// the full /statusz, allocator and collector state at both ends.
type windowSample struct {
	win      window
	cpu      []time.Duration
	ticks    []uint64
	st0, st1 statusz
	ms0, ms1 runtime.MemStats
	gc0, gc1 float64
	util     float64 // mean busy share of the scheduler's workers
}

func (in *instance) measureWindow(cfg e2eConfig) (*windowSample, error) {
	ws := &windowSample{win: newWindow(time.Now(), cfg.window, cfg.slices)}
	util := startUtilSampler(in.srv)
	last := len(ws.win.bounds) - 1
	for i, b := range ws.win.bounds {
		time.Sleep(time.Until(b))
		st, err := in.statusz()
		if err != nil {
			util.mean()
			return nil, err
		}
		ws.cpu = append(ws.cpu, cpuTime())
		t, _ := st.ticks()
		ws.ticks = append(ws.ticks, t)
		switch i {
		case 0:
			ws.st0, ws.gc0 = st, gcCPUSeconds()
			runtime.ReadMemStats(&ws.ms0)
		case last:
			ws.st1, ws.gc1 = st, gcCPUSeconds()
			runtime.ReadMemStats(&ws.ms1)
		}
	}
	ws.util = util.mean()
	return ws, nil
}

// retainedHeap turns the fleet on-demand (PATCH blocks until a running
// tick has drained) and reports the heap in MB after two collections.
func (in *instance) retainedHeap(res *e2eResult) float64 {
	if in.w.interval > 0 {
		for _, name := range in.names() {
			if err := in.setInterval(name, 0); err != nil {
				res.fail(1, "%v", err)
			}
		}
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cpuPerTick sets tick_cpu_ms: process CPU over work completed, per
// slice, median slice. Work is scheduled ticks (the /statusz delta) or,
// for the oneshot loop, extractions the client saw complete.
func (res *e2eResult) cpuPerTick(ws *windowSample, loop *oneshotLoop) (done uint64, err error) {
	slices := len(ws.win.bounds) - 1
	work := make([]uint64, slices)
	if loop != nil {
		for _, list := range [][]timed{loop.registers, loop.extracts} {
			for _, s := range list {
				if i := ws.win.slice(s.at); i >= 0 {
					work[i]++
				}
			}
		}
	} else {
		for i := range work {
			work[i] = ws.ticks[i+1] - ws.ticks[i]
		}
	}
	var perSlice []float64
	for i, n := range work {
		done += n
		if n > 0 {
			perSlice = append(perSlice, float64(ws.cpu[i+1]-ws.cpu[i])/float64(time.Millisecond)/float64(n))
		}
	}
	if done == 0 {
		return 0, errors.New("no tick completed inside the window")
	}
	res.tickCPUms, res.samples["tick_cpu_ms"] = median(perSlice), int(done)
	res.attempted += int(done)
	return done, nil
}

// deliveryMetrics sets delivery_p50_ms: upstream fetch → the client
// holds the result.
func (res *e2eResult) deliveryMetrics(in *instance, win window, frames [][]frame, loop *oneshotLoop) {
	w := in.w
	var delivery []timed
	switch {
	case loop != nil:
		delivery = loop.delivery
	case w.sharedURL:
		delivery = firstHolderDelivery(in.site, w.pageURL(0), frames)
	default:
		for i, fr := range frames {
			delivery = append(delivery, privateDelivery(in.site, w.pageURL(i), fr)...)
		}
	}
	if w.frozen {
		// Nothing changes inside a frozen window; delivery is timed on
		// the thaw that follows it.
		win = window{bounds: []time.Time{win.end(), time.Now()}}
	}
	d := win.inside(delivery, time.Millisecond)
	res.deliveryP50ms, res.samples["delivery_p50_ms"] = median(d), len(d)
	res.diag["tail.delivery_p95_ms"] = quantile(d, 0.95)
}

// loopMetrics reports the oneshot loop's requests.
func (res *e2eResult) loopMetrics(win window, loop *oneshotLoop) {
	res.attempted += loop.requests
	res.fail(loop.failed, "oneshot request failed")
	res.fail(loop.gaps, "oneshot response out of version order")
	r := win.inside(loop.reads, time.Microsecond)
	x := win.inside(loop.extracts, time.Millisecond)
	g := win.inside(loop.registers, time.Millisecond)
	res.readP50us, res.samples["read_p50_us"] = median(r), len(r)
	res.diag["tail.read_p99_us"] = quantile(r, 0.99) // closed loop: a request is due when it is sent
	res.diag["ctl.extract_p50_ms"], res.diag["tail.extract_p99_ms"] = median(x), quantile(x, 0.99)
	res.diag["ctl.register_p50_ms"], res.diag["tail.register_p95_ms"] = median(g), quantile(g, 0.95)
	res.samples["ctl.extract_p50_ms"], res.samples["ctl.register_p50_ms"] = len(x), len(g)
}

// pollerMetrics reports the open-loop poller's requests and the
// set-up's registrations.
func (res *e2eResult) pollerMetrics(win window, poll *poller, registers []time.Duration) {
	res.attempted += len(poll.samples) + poll.failed
	res.fail(poll.failed, "poller request failed")
	var reads, readsDue, reads304, readsJSON, lags []timed
	for _, s := range poll.samples {
		// Medians are timed from the send: on the VMs this runs on a
		// timer wake-up alone costs 0.2-0.7 ms, several times the read,
		// and charged to the read it would bury the server's share.
		// Tails are timed from the due instant, so a stall is charged
		// to every request queued behind it.
		sent := timed{at: s.at, lat: s.lat - s.lag}
		switch {
		case s.kind == readXML:
			reads = append(reads, sent)
			readsDue = append(readsDue, s.timed)
		case s.kind == readConditional && s.status == http.StatusNotModified:
			reads304 = append(reads304, s.timed)
		case s.kind == readJSONGzip:
			readsJSON = append(readsJSON, sent)
		}
		lags = append(lags, timed{at: s.at, lat: s.lag})
	}
	r := win.inside(reads, time.Microsecond)
	res.readP50us, res.samples["read_p50_us"] = median(r), len(r)
	res.diag["tail.read_p99_us"] = quantile(win.inside(readsDue, time.Microsecond), 0.99)
	res.diag["tail.read304_p99_us"] = quantile(win.inside(reads304, time.Microsecond), 0.99)
	res.diag["tail.read_jsongz_p50_us"] = median(win.inside(readsJSON, time.Microsecond))
	lag := win.inside(lags, time.Microsecond)
	res.diag["loadgen.lag_p50_us"], res.diag["loadgen.lag_p99_us"] = median(lag), quantile(lag, 0.99)
	regs := durationsIn(registers, time.Millisecond)
	res.diag["ctl.register_p50_ms"], res.diag["tail.register_p95_ms"] = median(regs), quantile(regs, 0.95)
	res.samples["ctl.register_p50_ms"] = len(regs)
}

// counterMetrics reports the server's and the runtime's counters over
// the window, and counts every server-side failure of the whole run.
func (res *e2eResult) counterMetrics(in *instance, ws *windowSample, stEnd statusz, work float64, window time.Duration) {
	st0, st1 := ws.st0, ws.st1
	ticks, errs := stEnd.ticks()
	res.fail(int(errs), "tick error (last: %s)", lastTickError(stEnd))
	// A slot the scheduler skipped because the previous tick was still
	// running (late) or the queue was full (dropped) produced no wrong
	// output: the tick it waited for completed and was checked. One host
	// stall longer than an interval (the WAL syncer holds a log's mutex
	// while it fsyncs, so a slow fsync on a shared disk is enough) sheds
	// a few on any box. They are reported, and fail the run only when the
	// box cannot carry the offered load and the timings measure queueing.
	shed := int(stEnd.Scheduler.LateTicks + stEnd.Scheduler.DroppedTicks)
	if float64(shed) > maxShedShare*float64(ticks) {
		res.fail(shed, "late or dropped tick (more than %.0f%% of %d ticks: overloaded)", 100*maxShedShare, ticks)
	} else if shed > 0 {
		res.tolerated = shed
		fmt.Printf("NOTE %d late or dropped ticks of %d (host stall; tolerated up to %.0f%%)\n", shed, ticks, 100*maxShedShare)
	}
	res.fail(int(stEnd.Delivery.DroppedSlow), "SSE event dropped on a slow subscriber")
	if p := stEnd.Persistence; p != nil {
		res.fail(int(p.AppendErrors), "WAL append error")
	}
	t0, e0 := st0.ticks()
	t1, e1 := st1.ticks()
	d := res.diag
	d["sched.tick_errors"] = float64(e1 - e0)
	d["sched.late_ticks"] = float64(st1.Scheduler.LateTicks - st0.Scheduler.LateTicks)
	d["sched.dropped_ticks"] = float64(st1.Scheduler.DroppedTicks - st0.Scheduler.DroppedTicks)
	d["sched.worker_utilization"] = ws.util
	d["sched.interval_err_p50_ms"] = intervalError(in.site, in.w, ws.win)
	d["server.noop_suppressed_ratio"] = ratio(
		float64(st1.Delivery.SuppressedNoopTicks-st0.Delivery.SuppressedNoopTicks), float64(t1-t0))
	hits := float64(st1.Delivery.EtagHits - st0.Delivery.EtagHits)
	d["server.etag_hit_ratio"] = ratio(hits, hits+float64(st1.Delivery.EtagMisses-st0.Delivery.EtagMisses))
	d["server.sse_frames"] = float64(st1.Delivery.Broadcasts - st0.Delivery.Broadcasts)
	d["server.dropped_slow"] = float64(st1.Delivery.DroppedSlow - st0.Delivery.DroppedSlow)
	if p0, p1 := st0.Persistence, st1.Persistence; p0 != nil && p1 != nil {
		d["resultlog.fsyncs_per_s"] = float64(p1.Fsyncs-p0.Fsyncs) / window.Seconds()
	}
	if c0, c1 := st0.SharedCache, st1.SharedCache; c0 != nil && c1 != nil {
		hit := float64(c1.Hits - c0.Hits + c1.Shared - c0.Shared)
		d["fetchcache.hit_ratio"] = ratio(hit, hit+float64(c1.Misses-c0.Misses))
	}
	d["proc.allocs_per_tick"] = float64(ws.ms1.Mallocs-ws.ms0.Mallocs) / work
	d["proc.alloc_kb_per_tick"] = float64(ws.ms1.TotalAlloc-ws.ms0.TotalAlloc) / 1024 / work
	d["proc.gc_cycles"] = float64(ws.ms1.NumGC - ws.ms0.NumGC)
	d["proc.gc_cpu_fraction"] = ratio(ws.gc1-ws.gc0, (ws.cpu[len(ws.cpu)-1] - ws.cpu[0]).Seconds())
}

// pollPeriod is the poller's mean spacing: 100 requests/s.
const pollPeriod = 10 * time.Millisecond

// maxShedShare is the share of a run's ticks the scheduler may skip
// (late or dropped) before the run counts as overloaded and fails.
const maxShedShare = 0.05

func lastTickError(st statusz) string {
	for _, p := range st.Pipelines {
		if p.LastError != "" {
			return p.Name + ": " + p.LastError
		}
	}
	return ""
}

// privateDelivery times every non-initial frame of a wrapper that owns
// its page from the upstream fetch that produced the frame's version.
func privateDelivery(site *upstream.Site, url string, frames []frame) []timed {
	var out []timed
	for i, f := range frames {
		if i == 0 {
			continue // the initial-state frame replays an old result
		}
		if t, ok := site.Stamp(url, f.gen); ok {
			out = append(out, timed{at: f.at, lat: f.at.Sub(t)})
		}
	}
	return out
}

// firstHolderDelivery is delivery for a fleet sharing one page behind
// the fetch cache: only the tick that went upstream has an observable
// start, so each page version is timed from its fetch to the first
// frame carrying it on any subscription.
func firstHolderDelivery(site *upstream.Site, url string, frames [][]frame) []timed {
	first := map[int]time.Time{}
	for _, fr := range frames {
		for i, f := range fr {
			if i == 0 {
				continue
			}
			if t, ok := first[f.gen]; !ok || f.at.Before(t) {
				first[f.gen] = f.at
			}
		}
	}
	var out []timed
	for gen, at := range first {
		if t, ok := site.Stamp(url, gen); ok {
			out = append(out, timed{at: at, lat: at.Sub(t)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].at.Before(out[j].at) })
	return out
}

// intervalError is the median |gap between consecutive upstream
// fetches of one page − interval| inside the window, in ms: how well
// the scheduler holds the cadence (private pages only).
func intervalError(site *upstream.Site, w workload, win window) float64 {
	if w.sharedURL || w.interval == 0 || w.frozen {
		return 0
	}
	var errs []float64
	for i := 0; i < w.fleet; i++ {
		stamps := site.Stamps(w.pageURL(i))
		for j := 1; j < len(stamps); j++ {
			if win.slice(stamps[j]) >= 0 {
				gap := stamps[j].Sub(stamps[j-1]) - w.interval
				errs = append(errs, math.Abs(float64(gap)/float64(time.Millisecond)))
			}
		}
	}
	return median(errs)
}

// finalRead is one wrapper's served state after the upstream froze.
type finalRead struct {
	name, url string
	body      []byte
	etag      string
}

// finalReads fetches every fleet wrapper's latest result twice: the
// bytes with their ETag, then a conditional GET that must answer 304
// with the same ETag.
func (in *instance) finalReads(res *e2eResult) []finalRead {
	var out []finalRead
	for i := 0; i < in.w.fleet; i++ {
		name, url := in.w.wrapperName(i), in.w.pageURL(i)
		res.attempted += 2
		resp, body, err := in.ctl.do(http.MethodGet, "/"+name, nil, nil)
		if err != nil || resp.StatusCode != http.StatusOK {
			res.fail(2, "final GET /%s failed", name)
			continue
		}
		fr := finalRead{name: name, url: url, body: body, etag: resp.Header.Get("ETag")}
		resp2, _, err := in.ctl.do(http.MethodGet, "/"+name, nil, map[string]string{"If-None-Match": fr.etag})
		if err != nil || resp2.StatusCode != http.StatusNotModified || resp2.Header.Get("ETag") != fr.etag {
			res.fail(1, "final conditional GET /%s: ETag %s not stable", name, fr.etag)
		}
		out = append(out, fr)
	}
	return out
}

// verifyRun is the correctness gate. It returns how many checks it
// made; every mismatch is recorded as a failure on res.
func verifyRun(res *e2eResult, ref *reference, in *instance, frames [][]frame, finals []finalRead, loop *oneshotLoop) (int, error) {
	checked := 0
	// Final bytes: current upstream version, byte-identical, ETag as
	// derived from the reference bytes.
	for _, f := range finals {
		checked++
		gen := upstream.StampOf(f.body)
		if gen < 0 {
			gen = 0
		}
		if want := in.site.Version(f.url); gen != want {
			res.fail(1, "final %s serves page version %d, upstream is at %d", f.name, gen, want)
			continue
		}
		want, err := ref.bytesFor(f.url, gen)
		if err != nil {
			return checked, err
		}
		if string(want) != string(f.body) {
			res.fail(1, "final %s@%d differs from the reference (%d vs %d bytes)", f.name, gen, len(f.body), len(want))
		} else if f.etag != etagOf(want) {
			res.fail(1, "final %s@%d: ETag %s, reference bytes hash to %s", f.name, gen, f.etag, etagOf(want))
		}
	}
	// Subscriptions: versions in order without gaps (a wrapper owning
	// its page must deliver every version up to the final one), and
	// every sampleEvery-th version byte-identical.
	for i, fr := range frames {
		name, url := in.w.wrapperName(i), in.w.pageURL(i)
		for j, f := range fr {
			if j > 0 {
				checked++
				prev := fr[j-1]
				switch {
				case f.id <= prev.id:
					res.fail(1, "watch %s: SSE id %d after %d", name, f.id, prev.id)
				case in.w.sharedURL && f.gen <= prev.gen:
					res.fail(1, "watch %s: page version %d after %d", name, f.gen, prev.gen)
				case !in.w.sharedURL && f.gen != prev.gen+1:
					res.fail(1, "watch %s: page version %d after %d (gap)", name, f.gen, prev.gen)
				}
			}
			if f.gen < 0 || f.gen%sampleEvery != 0 {
				continue
			}
			checked++
			want, err := ref.bytesFor(url, f.gen)
			if err != nil {
				return checked, err
			}
			if f.hash != payloadHash(want) {
				res.fail(1, "watch %s: frame of page version %d differs from the reference", name, f.gen)
			}
		}
		if n := len(fr); n > 0 {
			checked++
			if want := in.site.Version(url); fr[n-1].gen != want {
				res.fail(1, "watch %s: last frame carries page version %d, upstream ended at %d",
					name, fr[n-1].gen, want)
			}
		}
	}
	if loop != nil {
		for _, f := range loop.sampled {
			checked++
			want, err := ref.bytesFor(oneshotURL, f.gen)
			if err != nil {
				return checked, err
			}
			if f.hash != payloadHash(want) {
				res.fail(1, "oneshot: extraction of page version %d differs from the reference", f.gen)
			}
		}
	}
	return checked, nil
}
