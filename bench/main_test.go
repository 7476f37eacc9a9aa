package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestSmoke drives every workload through the traced command (which
// runs the end-to-end harness first) and two through the untraced one,
// with half-second windows and 20 traced ticks: the wiring (real scheduler,
// /v1 registration, WAL, SSE, poller, control-plane loop), the
// correctness gate and the shape of the result line. It asserts no
// timing.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if !traced && w.name != "churn5" {
				// The untraced command differs only in what it prints.
				continue
			}
			res, err := measure(runOptions{workload: w.name, seed: 7, seconds: 1, traced: traced, smoke: true}, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			decls := endToEndMetrics
			if traced {
				decls = perLayerMetrics
			}
			if len(res.Metrics) != len(decls) {
				t.Errorf("%s traced=%v: %d metrics printed, %d declared", w.name, traced, len(res.Metrics), len(decls))
			}
			for _, d := range decls {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, declared %q", w.name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
					t.Errorf("%s: metric %s = %v", w.name, d.Name, m.Value)
				case !traced && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.name, d.Name)
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
				t.Errorf("result line has keys %v", keys)
			}
		}
	}
}

// Two traced runs of one seed must agree exactly on every allocation
// count and counter-derived ratio: those are the numbers a later
// change may claim without a timing.
func TestTracedCountsRepeat(t *testing.T) {
	for _, name := range []string{"churn5", "fleet100"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var runs [2]map[string]float64
		for i := range runs {
			layers, ok, err := runTraced(tracedConfig{w: w, seed: 11, tmp: t.TempDir(), warm: 3, ticks: 12},
				&e2eResult{tickCPUms: 1, diag: map[string]float64{}})
			if err != nil || !ok {
				t.Fatalf("%s run %d: ok=%v err=%v", name, i, ok, err)
			}
			runs[i] = layers
		}
		for _, m := range append(append([]string(nil), exactMetrics...), allocMetrics...) {
			if !repeats(m, runs[0][m], runs[1][m]) {
				t.Errorf("%s: %s = %v, then %v", name, m, runs[0][m], runs[1][m])
			}
		}
		if runs[0]["elog.allocs"] == 0 || runs[0]["htmlparse.allocs"] == 0 {
			t.Errorf("%s: allocation counts are empty: %v", name, runs[0])
		}
	}
}

// BENCHMARK.json at the repository root must declare exactly what the
// program prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json above the benchmark's directory:", err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why == "" {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program prints %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, d := range endToEndMetrics {
		if g := b.EndToEnd[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, g, d)
		}
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program prints %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, d := range perLayerMetrics {
		if g := b.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, g, d)
		}
	}
}
