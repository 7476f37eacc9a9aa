// Command lixtoserver runs a Lixto Transformation Server instance
// (Section 5) hosting the application pipelines of Section 6 over the
// simulated web, and serves their output on HTTP:
//
//	lixtoserver [-addr :8080] [-interval 2s] [-steps N] [-pprof] [-history N]
//	            [-allow-dynamic] [-data-dir DIR] [-wal-fsync batch|always|off]
//
//	-addr           HTTP listen address
//	-interval       tick interval; the shared fetch cache serves a page for
//	                half of it
//	-steps N        run N synchronous ticks, print a summary and exit
//	-pprof          expose /debug/pprof/
//	-history N      documents kept per pipeline without -data-dir (default 64)
//	-allow-dynamic  accept wrappers at runtime through the /v1 API
//	-data-dir DIR   keep each wrapper's history in a result log under DIR,
//	                and restore snapshots, dynamic wrappers and webhook
//	                cursors from it on start
//	-wal-fsync      when result logs reach the disk: batch (every 50 ms),
//	                always (every append) or off
//
//	GET /nowplaying           the Now Playing portal feed (Section 6.1)
//	GET /flights              the latest flight alerts (6.2)
//	GET /press                the NITF news feed (6.3)
//	GET /power                the power-trading report (6.7)
//	GET /{name}/history?n=K   the K most recent documents of a pipeline
//	GET /healthz              liveness probe
//	GET /statusz              per-pipeline tick/error/latency counters
//	GET /debug/pprof/         live profiling (with -pprof)
//	/v1/wrappers/...          the wrapper-lifecycle API: register (with
//	                          -allow-dynamic), extract, results, SSE watch
//	                          and webhooks; see the README's "HTTP API v1"
//
// Documents are served as XML, or as JSON when the request's Accept
// header prefers application/json. SIGINT/SIGTERM shuts the server down
// gracefully, draining queued and in-flight ticks.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/elog"
	"repro/internal/fetchcache"
	"repro/internal/resultlog"
	"repro/internal/server"
	"repro/internal/web"
)

// sharedCacheEntries is the shared fetch cache's capacity in pages.
const sharedCacheEntries = 1024

// options are the parsed command-line flags.
type options struct {
	addr         string
	interval     time.Duration
	steps        int
	pprof        bool
	history      int
	allowDynamic bool
	dataDir      string
	walFsync     resultlog.FsyncMode
}

// parseFlags defines lixtoserver's flags on fs, parses args and
// validates the values.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	fs.DurationVar(&o.interval, "interval", 2*time.Second, "tick interval")
	fs.IntVar(&o.steps, "steps", 0, "run N ticks and exit (0 = serve forever)")
	fs.BoolVar(&o.pprof, "pprof", false, "expose /debug/pprof endpoints")
	fs.IntVar(&o.history, "history", 0, "results kept in memory per pipeline when -data-dir is unset (0 = default 64)")
	fs.BoolVar(&o.allowDynamic, "allow-dynamic", false, "accept wrapper registration at runtime via the /v1 API")
	fs.StringVar(&o.dataDir, "data-dir", "",
		"directory for durable result logs; enables crash recovery and webhook cursors (empty = in-memory only)")
	walFsync := fs.String("wal-fsync", "batch", "result-log fsync policy: batch, always, or off")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.interval <= 0 {
		return o, fmt.Errorf("-interval must be > 0, got %s", o.interval)
	}
	if o.history < 0 {
		return o, fmt.Errorf("-history must be >= 0, got %d", o.history)
	}
	var err error
	o.walFsync, err = resultlog.ParseFsyncMode(*walFsync)
	return o, err
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fatal(err)
	}

	np, err := apps.NewNowPlaying(2004)
	if err != nil {
		fatal(err)
	}
	fl, err := apps.NewFlightInfo(2004, []apps.Subscription{{Number: "OS105"}, {Number: "OS110"}})
	if err != nil {
		fatal(err)
	}
	pc, err := apps.NewPressClipping(2004)
	if err != nil {
		fatal(err)
	}
	pw, err := apps.NewPowerTrading(2004)
	if err != nil {
		fatal(err)
	}
	if o.history > 0 {
		// Set before the pipelines register (the server reads Retain
		// there) and before the first delivery (the collector latches it).
		for _, p := range []server.Pipeline{np, fl, pc, pw} {
			p.Output().Retain = o.history
		}
	}

	if o.steps > 0 {
		for i := 0; i < o.steps; i++ {
			np.Step()
			fl.Step(true)
			pc.Step(false, 0)
			pw.Step()
		}
		fmt.Printf("ran %d ticks\n", o.steps)
		fmt.Printf("  nowplaying: %d portal updates\n", np.Portal.Len())
		fmt.Printf("  flights:    %d SMS deliveries\n", fl.SMS.Len())
		fmt.Printf("  press:      %d publications\n", pc.Out.Len())
		fmt.Printf("  power:      %d reports\n", pw.Out.Len())
		return
	}

	cfg := server.Config{
		Addr:            o.addr,
		MatchCache:      elog.NewMatchCache(),
		SharedCache:     fetchcache.New(sharedCacheEntries, o.interval/2),
		DefaultInterval: o.interval,
		EnablePprof:     o.pprof,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}
	var store *resultlog.Store
	if o.dataDir != "" {
		store, err = resultlog.Open(o.dataDir, resultlog.Options{Fsync: o.walFsync})
		if err != nil {
			fatal(err)
		}
		cfg.ResultStore = store
	}
	if o.allowDynamic {
		// Dynamic wrappers without an inline page extract from the
		// built-in simulated sites.
		sim := web.New()
		web.NewAuctionSite(2004, 40).Register(sim, "www.ebay.com")
		web.NewBookSite(2004, 12).Register(sim, "books.example.com")
		cfg.AllowDynamic = true
		cfg.DynamicFetcher = sim
	}
	srv := server.New(cfg)
	for _, p := range []server.Pipeline{np, fl, pc, pw} {
		if err := srv.Register(p, 0); err != nil {
			fatal(err)
		}
	}
	if store != nil {
		// Rehydrate snapshots, dynamic wrappers, and webhook cursors
		// from the previous run's result logs.
		n, err := srv.Restore()
		if err != nil {
			fatal(err)
		}
		if n > 0 {
			fmt.Printf("lixtoserver: restored %d wrapper(s) from %s\n", n, o.dataDir)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("lixtoserver: serving on %s (tick every %s)\n", o.addr, o.interval)
	if err := srv.Run(ctx); err != nil {
		fatal(err)
	}
	if store != nil {
		if err := store.Close(); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lixtoserver:", err)
	os.Exit(1)
}
