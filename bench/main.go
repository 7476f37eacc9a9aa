// Command bench (lixtobench) is the repository's canonical
// tick-to-delivery benchmark. See README.md in this directory.
//
// One measured run, as BENCHMARK.json's command invokes it:
//
//	bench --workload churn5 --seed 1 --seconds 10 --trace 0   end-to-end metrics
//	bench --workload churn5 --seed 1 --seconds 10 --trace 1   per-layer metrics
//
// Every workload, each run in a child process:
//
//	bench [-seed N] [-seconds S]           one set: end-to-end + traced run per workload
//	bench -sets 2                          two sets, compared against the bounds
//	bench -smoke                           half-second windows, 20 traced ticks
//
// The last line of a single run's standard output is one JSON object
// {"correct","attempted","failed","metrics"}; a failed correctness
// check or operation makes the exit status non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is the last line a single run prints.
type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOptions are the knobs of one single-workload run.
type runOptions struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	smoke    bool
	traceOut string
}

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload (default: every workload, each in a child process)")
		seed     = flag.Uint64("seed", 1, "seed of the generated upstream pages")
		seconds  = flag.Float64("seconds", 10, "length of the measured window")
		traceArg = flag.Int("trace", 0, "0 = end-to-end run, tracing off; 1 = traced run printing the per-layer metrics")
		sets     = flag.Int("sets", 1, "without -workload: run every workload this many times and compare the sets")
		smoke    = flag.Bool("smoke", false, "wiring check: half-second windows, 20 traced ticks")
		traceOut = flag.String("trace-out", "", "traced run: write every span to this file as JSON")
		out      = flag.String("out", "", "without -workload: write the full report (environment, every run) to this file as JSON")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *name == "" {
		os.Exit(runSets(*sets, *seed, *seconds, *smoke, *out))
	}
	res, err := runOne(runOptions{workload: *name, seed: *seed, seconds: *seconds,
		traced: *traceArg != 0, smoke: *smoke, traceOut: *traceOut})
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne performs one run in this process, pinned to one CPU, and
// prints its readable report; the caller prints the result line.
func runOne(o runOptions) (*runOutput, error) {
	tmp, err := scratchDir()
	if err != nil {
		return nil, err
	}
	pinned, err := pinToOneCPU()
	if err != nil {
		fmt.Println("WARNING not pinned to one CPU, expect noisier numbers:", err)
	}
	env, _ := json.Marshal(readEnvironment(tmp, pinned))
	fmt.Printf("environment %s\n", env)
	return measure(o, tmp)
}

// measure runs the end-to-end harness and, for a traced run, the
// replay, keeping its files under tmp.
func measure(o runOptions, tmp string) (*runOutput, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	cfg := e2eConfig{w: w, seed: o.seed, tmp: tmp,
		window: time.Duration(o.seconds * float64(time.Second)),
		warmup: 2 * time.Second, thaw: 3 * time.Second, slices: 10, setups: 3}
	tcfg := tracedConfig{w: w, seed: o.seed, tmp: tmp, warm: 20, ticks: 120, out: o.traceOut}
	if o.smoke {
		cfg.window, cfg.warmup, cfg.thaw, cfg.setups = time.Second/2, 200*time.Millisecond, 400*time.Millisecond, 2
		tcfg.warm, tcfg.ticks = 5, 20
	}
	if o.traced {
		// The traced command needs the end-to-end harness only for its
		// counters and tails; one set-up is enough.
		cfg.setups = 1
	}
	fmt.Printf("lixtobench %s seed=%d window=%s warmup=%s slices=%d setups=%d traced=%v\n",
		w.name, o.seed, cfg.window, cfg.warmup, cfg.slices, cfg.setups, o.traced)

	e2e, err := runE2E(cfg)
	if err != nil {
		return nil, err
	}
	out := &runOutput{Correct: e2e.failed == 0, Attempted: e2e.attempted, Failed: e2e.failed,
		Metrics: map[string]metricValue{}}
	for _, f := range e2e.failures {
		fmt.Println("FAILED", f)
	}
	endToEnd := map[string]float64{
		"setup_s":          e2e.setupS,
		"tick_cpu_ms":      e2e.tickCPUms,
		"delivery_p50_ms":  e2e.deliveryP50ms,
		"read_p50_us":      e2e.readP50us,
		"retained_heap_mb": e2e.retainedHeapMB,
	}
	for _, m := range endToEndMetrics {
		fmt.Printf("  %-32s %14.4f %-5s (n=%d)\n", m.Name, endToEnd[m.Name], m.Unit, e2e.samples[m.Name])
	}
	if !o.traced {
		for _, m := range endToEndMetrics {
			out.Metrics[m.Name] = metricValue{endToEnd[m.Name], m.Unit}
		}
		for _, k := range sortedKeys(e2e.diag) {
			fmt.Printf("  %-32s %14.4f %s\n", k, e2e.diag[k], perLayerUnits[k])
		}
		return out, nil
	}

	layers, ok, err := runTraced(tcfg, e2e)
	if err != nil {
		return nil, err
	}
	if !ok {
		out.Correct = false
		out.Failed++
	}
	for k, v := range e2e.diag {
		layers[k] = v
	}
	for _, k := range sortedKeys(layers) {
		if _, declared := perLayerUnits[k]; !declared {
			return nil, fmt.Errorf("metric %q is measured but not declared in metrics.go", k)
		}
	}
	for _, m := range perLayerMetrics {
		v := layers[m.Name]
		fmt.Printf("  %-32s %14.4f %s\n", m.Name, v, m.Unit)
		out.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	return out, nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
