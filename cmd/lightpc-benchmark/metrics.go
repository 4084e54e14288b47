package main

import (
	"math"
	"sort"
)

// metricDef describes one reported metric. BENCHMARK.json at the
// repository root lists the same names, units and directions
// (TestMetricNamesMatchBenchmarkJSON keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_tail", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// hostSharePkgs are the buckets the traced run's CPU profile is split
// into, by the package of each sample's leaf frame.
var hostSharePkgs = []string{
	"sim", "workload", "cpu", "cache", "noc", "memctrl", "psm", "nvdimm", "pram",
	"dram", "pmemdimm", "pmdk", "linetab", "kernel", "sng", "snapshot",
	"crashpoint", "journal", "checkpoint", "energy", "experiments",
	"runtime", "other",
}

// figureLayers are the experiments timed on their own in the traced
// figures run; every other experiment of a pass is summed into
// experiments.rest_ms.
var figureLayers = []string{
	"tableII", "fig4", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig21a",
}

// perLayer are the traced run's metrics. A workload that does not reach a
// layer reports 0 for it. Units starting with sim_ are simulated time; every
// other time is host time.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		// oc-pmem and legacy-dram: the calls inside one Platform.Run.
		{"lightpc.new_ms", "ms/op", "lower", 0},
		{"workload.ns_per_ref", "ns/ref", "lower", 0},
		{"cpu.self_ns_per_ref", "ns/ref", "lower", 0},
		{"memctrl.read_ns", "ns/call", "lower", 0},
		{"memctrl.write_ns", "ns/call", "lower", 0},
		{"memctrl.reads_per_op", "1/op", "lower", 0},
		{"memctrl.writes_per_op", "1/op", "lower", 0},
		// oc-pmem model outputs: identical under any change that only
		// speeds the simulator up.
		{"psm.row_buffer_hit_frac", "frac", "higher", 0},
		{"psm.row_buffer_serve_frac", "frac", "higher", 0},
		{"psm.reconstruct_frac", "frac", "higher", 0},
		{"psm.blocked_read_frac", "frac", "lower", 0},
		{"psm.media_writes_per_write", "1/write", "lower", 0},
		{"psm.sim_read_ns_p50", "sim_ns", "lower", 0},
		{"psm.sim_read_ns_p99", "sim_ns", "lower", 0},
		{"psm.sim_write_ack_ns_p50", "sim_ns", "lower", 0},
		{"psm.sim_write_ack_ns_p99", "sim_ns", "lower", 0},
		{"pram.conflicts_per_read", "1/read", "lower", 0},
		{"nvdimm.rmw_per_write", "1/write", "lower", 0},
		// legacy-dram model outputs.
		{"dram.row_hit_frac", "frac", "higher", 0},
		{"dram.refreshes_per_op", "1/op", "lower", 0},
		// crash-sweep.
		{"crashpoint.build_ms", "ms/cell", "lower", 0},
		{"crashpoint.offsets_ms", "ms/cell", "lower", 0},
		{"snapshot.fork_ms", "ms/cut", "lower", 0},
		{"snapshot.fork_mb", "MB/cut", "lower", 0},
		{"crashpoint.cut_ms", "ms/cut", "lower", 0},
		{"crashpoint.cuts_per_cell", "1/cell", "higher", 0},
		{"sng.completed_frac", "frac", "higher", 0},
		{"sng.cold_boot_frac", "frac", "lower", 0},
		{"sng.sim_stop_ms", "sim_ms", "lower", 0},
	}
	// figures.
	for _, id := range figureLayers {
		m = append(m, metricDef{"experiments." + id + "_ms", "ms/pass", "lower", 0})
	}
	m = append(m, metricDef{"experiments.rest_ms", "ms/pass", "lower", 0})
	m = append(m, metricDef{"accuracy.paper_error_pct", "%", "lower", 0})
	for _, h := range headlines {
		m = append(m, metricDef{"accuracy." + h.Name + "_err_pct", "%", "lower", 0})
	}
	// Every workload.
	for _, pkg := range hostSharePkgs {
		m = append(m, metricDef{"host_share." + pkg, "%", "lower", 0})
	}
	return append(m,
		metricDef{"runtime.gc_cpu_frac", "frac", "lower", 0},
		metricDef{"runtime.max_rss_mb", "MB", "lower", 0},
		metricDef{"trace.overhead_frac", "frac", "lower", 0},
	)
}

// tailPct is the percentile op_ms_tail reports: the highest one that
// repeats between runs on a 2-CPU cloud host. Across ten runs p90 and p95 had
// up to twice the interquartile range of p75.
const tailPct = 75

// tenBeyond reports whether at least ten of n samples lie beyond the
// nearest-rank percentile p: fewer, and the percentile is one or two slow
// samples, not a tail.
func tenBeyond(p float64, n int) bool {
	return n-1-rankIndex(p, n) >= 10
}

// rankIndex is the nearest-rank index of percentile p in n sorted samples.
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// percentile reports the nearest-rank percentile p of xs (xs is sorted in
// place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rankIndex(p, len(xs))]
}

// median reports the middle of xs, averaging the two middle values of an
// even count (xs is sorted in place).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method), so
// spreads computed here match spreads computed from the printed values.
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return d[0], d[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
