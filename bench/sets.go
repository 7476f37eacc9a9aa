package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runRecord is one child run of a set.
type runRecord struct {
	Set      int        `json:"set"`
	Workload string     `json:"workload"`
	Traced   bool       `json:"traced"`
	Seconds  float64    `json:"wall_seconds"`
	Result   *runOutput `json:"result,omitempty"`
	Error    string     `json:"error,omitempty"`
}

// comparison is one workload x metric pair across two sets.
type comparison struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	RelDiff  float64 `json:"rel_diff"`
	Bound    float64 `json:"bound,omitempty"`
	Exceeds  bool    `json:"exceeds"`
}

// setsReport is what -out writes.
type setsReport struct {
	Environment environment  `json:"environment"`
	Seed        uint64       `json:"seed"`
	WindowS     float64      `json:"window_seconds"`
	Smoke       bool         `json:"smoke"`
	Sets        int          `json:"sets"`
	Runs        []runRecord  `json:"runs"`
	Compared    []comparison `json:"compared,omitempty"`
	// ExactMismatches lists the traced metrics that must repeat between
	// two sets of one seed (counter ratios exactly, allocation counts
	// within allocTolerance) and did not.
	ExactMismatches []comparison `json:"exact_mismatches,omitempty"`
}

// exactMetrics are counts made by the program in a single-goroutine
// replay: two traced runs of one seed must agree on them to the last
// digit. allocMetrics are the runtime's malloc counts per stage; they
// repeat exactly except where a stage fills large maps, whose overflow
// buckets depend on Go's per-process hash seed (elog.eval on the wide
// page: a handful in 40 000), so they are held to allocTolerance.
var (
	exactMetrics = []string{
		"transform.poll_memo_hit_ratio", "elog.subtree_hit_ratio", "elog.reused_node_ratio",
		"elog.match_cache_hit_ratio", "pib.reused_node_ratio", "xmlenc.spliced_byte_ratio",
		"xmlenc.bytes_out", "resultlog.bytes_per_tick", "resultlog.write_amp", "upstream.dirty_node_ratio",
	}
	allocMetrics = []string{"htmlparse.allocs", "dom.allocs", "elog.allocs", "pib.allocs", "xmlenc.allocs"}
)

const allocTolerance = 0.001

// repeats reports whether two traced runs of one seed agree on metric
// name as closely as it must.
func repeats(name string, x, y float64) bool {
	for _, m := range allocMetrics {
		if m == name {
			return math.Abs(x-y) <= allocTolerance*math.Max(x, y)
		}
	}
	return x == y
}

// runSets runs every workload sets times (end-to-end and traced), each
// run in a child process so that none inherits another's heap, and
// returns the exit status: non-zero when a run failed its correctness
// gate or two sets disagree by more than a metric's bound.
func runSets(sets int, seed uint64, seconds float64, smoke bool, outPath string) int {
	if sets < 1 {
		sets = 1
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	tmp, err := scratchDir()
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep := setsReport{Environment: readEnvironment(tmp, -1), Seed: seed, WindowS: seconds, Smoke: smoke, Sets: sets}
	status := 0
	for set := 1; set <= sets; set++ {
		// Alternate the order so that a drift of the box over the run
		// does not always favour the same set.
		order := append([]workload(nil), workloads...)
		if set%2 == 0 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			for _, traced := range []bool{false, true} {
				rec := runChild(ctx, self, w.name, set, seed, seconds, traced, smoke)
				rep.Runs = append(rep.Runs, rec)
				switch {
				case rec.Error != "":
					status = 1
					fmt.Printf("set %d %-9s traced=%-5v FAILED: %s\n", set, w.name, traced, rec.Error)
				case !rec.Result.Correct:
					status = 1
					fmt.Printf("set %d %-9s traced=%-5v INCORRECT (%d of %d failed)\n", set, w.name, traced,
						rec.Result.Failed, rec.Result.Attempted)
				default:
					fmt.Printf("set %d %-9s traced=%-5v ok in %.1fs\n", set, w.name, traced, rec.Seconds)
				}
				if ctx.Err() != nil {
					return 1
				}
			}
		}
	}
	printSet(rep.Runs, 1)
	if sets >= 2 {
		rep.Compared, rep.ExactMismatches = compareSets(rep.Runs)
		fmt.Printf("\n%-9s %-18s %12s %12s %8s %6s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
		for _, c := range rep.Compared {
			mark := ""
			if c.Exceeds {
				mark = "  EXCEEDS"
				if !smoke { // one-second windows are too short to hold any bound
					status = 1
				}
			}
			fmt.Printf("%-9s %-18s %12.4f %12.4f %7.1f%% %5.0f%%%s\n", c.Workload, c.Metric, c.First, c.Second,
				100*c.RelDiff, 100*c.Bound, mark)
		}
		for _, c := range rep.ExactMismatches {
			status = 1
			fmt.Printf("NOT EXACT %-9s %-28s %v vs %v\n", c.Workload, c.Metric, c.First, c.Second)
		}
	}
	if outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			status = 1
		}
	}
	return status
}

// runChild runs one workload in a child process and parses the result
// line. The child is killed if ctx ends, and always waited for.
func runChild(ctx context.Context, self, name string, set int, seed uint64, seconds float64, traced, smoke bool) runRecord {
	rec := runRecord{Set: set, Workload: name, Traced: traced}
	tr := "0"
	if traced {
		tr = "1"
	}
	args := []string{"--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", tr}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	rec.Seconds = time.Since(t0).Seconds()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			if strings.HasPrefix(line, "FAILED") {
				fmt.Println("   ", line)
			}
			last = line
		}
	}
	var res runOutput
	if json.Unmarshal([]byte(last), &res) == nil && res.Metrics != nil {
		rec.Result = &res
		return rec // an incorrect run exits 1 but still reports
	}
	if err == nil {
		err = fmt.Errorf("no result line")
	}
	rec.Error = fmt.Sprintf("%v: %s", err, strings.TrimSpace(stderr.String()))
	return rec
}

// printSet prints every metric of one set by name with its unit.
func printSet(runs []runRecord, set int) {
	for _, r := range runs {
		if r.Set != set || r.Result == nil {
			continue
		}
		kind, decls := "end-to-end", endToEndMetrics
		if r.Traced {
			kind, decls = "per-layer", perLayerMetrics
		}
		fmt.Printf("\n%s %s (set %d): correct=%v attempted=%d failed=%d\n", r.Workload, kind, set,
			r.Result.Correct, r.Result.Attempted, r.Result.Failed)
		for _, d := range decls {
			if m, ok := r.Result.Metrics[d.Name]; ok {
				fmt.Printf("  %-32s %14.4f %s\n", d.Name, m.Value, m.Unit)
			}
		}
	}
}

// compareSets pairs sets 1 and 2: every end-to-end metric against its
// bound, and the exact metrics of the traced runs for equality.
func compareSets(runs []runRecord) (compared, inexact []comparison) {
	find := func(set int, name string, traced bool) *runOutput {
		for _, r := range runs {
			if r.Set == set && r.Workload == name && r.Traced == traced {
				return r.Result
			}
		}
		return nil
	}
	for _, w := range workloads {
		if a, b := find(1, w.name, false), find(2, w.name, false); a != nil && b != nil {
			for _, d := range endToEndMetrics {
				x, y := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
				c := comparison{Workload: w.name, Metric: d.Name, Unit: d.Unit, First: x, Second: y, Bound: d.Bound}
				c.RelDiff = math.Abs(y-x) / math.Max(math.Min(x, y), 1e-12)
				c.Exceeds = c.RelDiff > d.Bound
				compared = append(compared, c)
			}
		}
		if a, b := find(1, w.name, true), find(2, w.name, true); a != nil && b != nil {
			for _, name := range append(append([]string(nil), exactMetrics...), allocMetrics...) {
				x, y := a.Metrics[name].Value, b.Metrics[name].Value
				if !repeats(name, x, y) {
					inexact = append(inexact, comparison{Workload: w.name, Metric: name,
						Unit: perLayerUnits[name], First: x, Second: y, Exceeds: true})
				}
			}
		}
	}
	return compared, inexact
}
