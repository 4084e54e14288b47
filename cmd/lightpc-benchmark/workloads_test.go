package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/experiments"
	"repro/internal/workload"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	sc := scales["full"]
	if a, b := platformSchedule(1, sc), platformSchedule(1, sc); !reflect.DeepEqual(a, b) {
		t.Fatal("platform schedule differs between two builds at seed 1")
	}
	if a, b := platformSchedule(1, sc), platformSchedule(2, sc); reflect.DeepEqual(a, b) {
		t.Fatal("platform schedule is the same at seeds 1 and 2")
	}
	if a, b := crashSchedule(1, sc), crashSchedule(1, sc); !reflect.DeepEqual(a, b) {
		t.Fatal("crash schedule differs between two builds at seed 1")
	}
	if a, b := crashSchedule(1, sc), crashSchedule(2, sc); reflect.DeepEqual(a, b) {
		t.Fatal("crash schedule is the same at seeds 1 and 2")
	}

	// Every seed runs every Table II spec once per round.
	var names, want []string
	for _, op := range platformSchedule(2, sc) {
		names = append(names, op.Spec.Name)
	}
	for _, s := range workload.Table2() {
		want = append(want, s.Name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("schedule specs %v, want %v", names, want)
	}
	if got, want := len(crashSchedule(2, sc)), len(want)*sc.cellSeeds; got != want {
		t.Fatalf("crash schedule has %d cells, want %d", got, want)
	}
}

func TestHeadlineExperimentsExist(t *testing.T) {
	ids := map[string]bool{}
	for _, n := range experiments.All() {
		ids[n.ID] = true
	}
	for _, h := range headlines {
		if !ids[h.Exp] {
			t.Errorf("headline %s names experiment %q, which experiments.All() lacks", h.Name, h.Exp)
		}
		if headlineRuns[h.Exp] == nil {
			t.Errorf("headline %s: no structured run for %q", h.Name, h.Exp)
		}
	}
	for id := range headlineRuns {
		if !ids[id] {
			t.Errorf("headline run %q is not an experiments.All() id", id)
		}
	}
	for _, id := range figureLayers {
		if !ids[id] {
			t.Errorf("figure layer %q is not an experiments.All() id", id)
		}
	}
}

func TestAccuracyOfDocumentedValues(t *testing.T) {
	// The measured column of EXPERIMENTS.md at seed 1.
	documented := map[string]float64{
		"fig4_trans_x":                9.53,
		"fig8b_busy_stop_ms":          8.5,
		"fig15_lightpc_vs_legacy_x":   1.10,
		"fig15_baseline_vs_lightpc_x": 2.67,
		"fig16_read_penalty_x":        6.0,
		"fig17_bandwidth_pct":         84.6,
		"fig18_power_pct":             28.0,
		"fig18_energy_saving_pct":     69.1,
		"fig19_syspc_x":               1.96,
		"fig19_a_checkpc_x":           9.37,
		"fig19_s_checkpc_x":           2.51,
		"fig20_syspc_vs_atx_x":        157,
		"fig21_stop_mcycles":          13.6,
	}
	per, mean := accuracy(documented)
	if math.Abs(mean-11.358) > 0.01 {
		t.Fatalf("paper_error_pct of the documented values = %.3f, want 11.358", mean)
	}
	if per["fig18_power_pct"] != 0 {
		t.Fatalf("fig18 power matches the paper exactly, got %v%%", per["fig18_power_pct"])
	}
	if _, mean := accuracy(nil); mean != 100 {
		t.Fatalf("no headlines should be 100%% off, got %v", mean)
	}
}

// smokeRun runs one workload at smoke scale with the default single round.
func smokeRun(t *testing.T, w workloadDef, traced bool) *result {
	t.Helper()
	res, err := runWorkload(w, runOptions{seed: 1, scale: "smoke", trace: traced, outdir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d %v", w.Name, res.Correct, res.Attempted, res.Failed, res.failures)
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: %s = %v", w.Name, name, v.Value)
		}
	}
	return res
}

func TestSmokeRunOfEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		res := smokeRun(t, w, false)
		for _, m := range endToEnd {
			if v := res.Metrics[m.Name].Value; v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Name, m.Name, v)
			}
		}
	}
}

func TestSmokeTracedRunOfEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		res := smokeRun(t, w, true)
		var traceFile string
		for _, kv := range res.info {
			if kv[0] == "trace_file" {
				traceFile = kv[1]
			}
		}
		if _, err := os.Stat(traceFile); err != nil {
			t.Errorf("%s: trace file: %v", w.Name, err)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds default %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].Name || w.Why != workloads[i].Why) {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, program %q / %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	declared := func(ms []metricJSON) []metricDef {
		var out []metricDef
		for _, m := range ms {
			out = append(out, metricDef(m))
		}
		return out
	}
	if got := declared(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end:\n json    %v\n program %v", got, endToEnd)
	}
	if got := declared(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer:\n json    %v\n program %v", got, perLayer)
	}

	// The metrics a run actually prints, both ways.
	w := workloads[0]
	for _, c := range []struct {
		traced bool
		want   []metricJSON
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		res := smokeRun(t, w, c.traced)
		want := map[string]string{}
		for _, m := range c.want {
			want[m.Name] = m.Unit
		}
		for name, v := range res.Metrics {
			if u, ok := want[name]; !ok || u != v.Unit {
				t.Errorf("trace=%v: printed %s [%s], BENCHMARK.json has [%s] (declared %v)", c.traced, name, v.Unit, u, ok)
			}
		}
		for name := range want {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("trace=%v: BENCHMARK.json metric %s not printed", c.traced, name)
			}
		}
	}
}
