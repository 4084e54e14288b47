// Command lightpc-benchseed snapshots the benchmark suite into
// BENCH_SEED.json: it times the quick experiment suite serially and through
// the parallel runner (-j, independent experiments fanned out), times the
// full-fidelity suite that lightpc-bench prints by default at -j 1 and at
// -j NumCPU (one warm-up run, then the median and min–max range of
// fullRuns timed runs), times one crash-sweep cell rebuilt per cut and
// forked per cut, then runs every
// `go test -bench` benchmark once with -benchmem and captures each bench's
// ns/op, B/op, allocs/op, plus its custom paper metrics. A benchmark that
// reads 0 or 1 allocs/op in that single iteration runs again for
// pinnedBenchtime, and the snapshot keeps the longer run.
// cmd/lightpc-perfdiff compares two snapshots.
//
// The process pins GOMAXPROCS to the real CPU count before timing anything
// (an inherited GOMAXPROCS=1 would silently record a crippled snapshot)
// and records num_cpu alongside the speedups: a -j figure is only
// meaningful relative to the cores it ran on, and on a single-CPU host it
// is honestly ~1.0x.
//
// Usage:
//
//	lightpc-benchseed -out BENCH_SEED.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/crashpoint"
	"repro/internal/experiments"
)

// benchLine is one parsed `go test -bench -benchmem` result line. The
// allocator columns get first-class fields so perf diffs can gate on
// allocation regressions, not just time.
type benchLine struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`

	pkg string // import path, from the "pkg:" line go test prints first
}

// pinnedBenchtime is how long a benchmark that read 0 or 1 allocs/op in
// its single-iteration pass runs again. A stray runtime allocation in one
// iteration reads as 1 alloc/op, and lightpc-perfdiff -strict-zero-alloc
// fails on it; go test's integer allocs/op column reads it as 0 over the
// longer run, while an allocation the benchmark makes every iteration
// still reads 1. A time budget rather than an iteration count makes the
// ns/op of these benches, most of them tens of nanoseconds, an average
// over millions of iterations instead of a few microseconds.
const pinnedBenchtime = "100ms"

type seed struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	SerialMs   float64 `json:"suite_serial_ms"`
	ParallelMs float64 `json:"suite_parallel_ms"`
	SpeedupX   float64 `json:"runner_speedup_x"`

	// The full-fidelity suite (experiments.DefaultOptions, what
	// lightpc-bench prints by default) at -j 1 and at -j NumCPU: the
	// median of fullRuns timed runs and their [min, max].
	FullSerialMs        float64    `json:"full_serial_ms"`
	FullSerialRangeMs   [2]float64 `json:"full_serial_range_ms"`
	FullParallelMs      float64    `json:"full_parallel_ms"`
	FullParallelRangeMs [2]float64 `json:"full_parallel_range_ms"`

	// The snapshot axis: one crash-sweep cell with a fresh Build per cut
	// (the historical cell) vs one Build forked per cut (the shipping
	// cell). Orthogonal to -j: this is single-cell wall time, the win
	// every sweep worker gets regardless of fan-out.
	SweepRebuildMs float64 `json:"sweep_rebuild_ms"`
	SweepForkMs    float64 `json:"sweep_fork_ms"`
	SweepSpeedupX  float64 `json:"sweep_speedup_x"`

	Benches []benchLine `json:"benches"`
}

// timeSuite runs the full quick experiment suite at the given worker count
// and returns its wall-clock plus the rendered output (so the two runs can
// be checked for byte-equality — a corrupted-parallelism snapshot would be
// worthless).
func timeSuite(jobs int) (float64, string) {
	o := experiments.QuickOptions()
	o.Jobs = jobs
	start := time.Now()
	out := experiments.Render(experiments.RunAll(o))
	return float64(time.Since(start).Microseconds()) / 1000, out
}

// fullRuns is how many timed runs of the full-fidelity suite each worker
// count gets, after one untimed warm-up run.
const fullRuns = 3

// timeFull runs the full-fidelity suite at the given worker count once to
// warm up and then fullRuns times, and returns the median wall-clock, the
// [min, max] range, and the rendered output. Every run must render the
// same bytes.
func timeFull(jobs int) (median float64, span [2]float64, out string, err error) {
	o := experiments.DefaultOptions()
	o.Jobs = jobs
	out = experiments.Render(experiments.RunAll(o))
	ms := make([]float64, fullRuns)
	for i := range ms {
		start := time.Now()
		got := experiments.Render(experiments.RunAll(o))
		ms[i] = float64(time.Since(start).Microseconds()) / 1000
		if got != out {
			return 0, span, "", fmt.Errorf("full suite at -j %d: run %d rendered differently from the warm-up", jobs, i+1)
		}
	}
	slices.Sort(ms)
	return ms[len(ms)/2], [2]float64{ms[0], ms[len(ms)-1]}, out, nil
}

// timeSweep runs one crash-sweep cell both ways — a fresh Build for every
// cut offset, then one Build forked per cut — and returns both wall-clocks
// plus each path's concatenated CutOutcome JSON (checked for byte-equality;
// a fork that diverged from a rebuild would make the speedup meaningless).
func timeSweep() (rebuildMs, forkMs float64, rebuildOut, forkOut string, err error) {
	sc := crashpoint.Scenario{Seed: 1, Workload: "Redis", AppOps: 2000}
	const label, fuzz = "benchseed/sweep", 4

	render := func(outs []crashpoint.CutOutcome) (string, error) {
		j, err := json.Marshal(outs)
		return string(j), err
	}

	start := time.Now()
	ref, err := crashpoint.Build(sc)
	if err != nil {
		return 0, 0, "", "", err
	}
	offsets := crashpoint.CellOffsets(ref, label, fuzz)
	var outs []crashpoint.CutOutcome
	for _, off := range offsets {
		s, err := crashpoint.Build(sc)
		if err != nil {
			return 0, 0, "", "", err
		}
		outs = append(outs, s.CutAt(off))
	}
	rebuildMs = float64(time.Since(start).Microseconds()) / 1000
	if rebuildOut, err = render(outs); err != nil {
		return 0, 0, "", "", err
	}

	start = time.Now()
	base, err := crashpoint.Build(sc)
	if err != nil {
		return 0, 0, "", "", err
	}
	outs = outs[:0]
	for _, off := range crashpoint.CellOffsets(base, label, fuzz) {
		outs = append(outs, base.Fork().CutAt(off))
	}
	forkMs = float64(time.Since(start).Microseconds()) / 1000
	if forkOut, err = render(outs); err != nil {
		return 0, 0, "", "", err
	}
	return rebuildMs, forkMs, rebuildOut, forkOut, nil
}

// parseBench extracts "Benchmark..." result lines: name, ns/op, and any
// trailing custom metrics ("12.3 unit" pairs).
func parseBench(out string) []benchLine {
	var lines []benchLine
	pkg := ""
	for _, l := range strings.Split(out, "\n") {
		if p, ok := strings.CutPrefix(l, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		if !strings.HasPrefix(l, "Benchmark") {
			continue
		}
		f := strings.Fields(l)
		// name, iterations, value, "ns/op", then metric pairs.
		if len(f) < 4 || f[3] != "ns/op" {
			continue
		}
		ns, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			continue
		}
		b := benchLine{Name: strings.TrimSuffix(f[0], "-"+strconv.Itoa(runtime.GOMAXPROCS(0))), NsPerOp: ns, pkg: pkg}
		for i := 4; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[f[i+1]] = v
			}
		}
		lines = append(lines, b)
	}
	return lines
}

// rerunPinned runs every benchmark that read at most 1 allocs/op again for
// pinnedBenchtime, one go test per package, and replaces its line with the
// longer run's. A benchmark selected by its top-level name runs
// all its sub-benchmarks, but only the selected lines are replaced.
func rerunPinned(benches []benchLine, env []string) error {
	var pkgs []string
	tops := map[string][]string{}
	for _, b := range benches {
		if b.AllocsPerOp > 1 {
			continue
		}
		top, _, _ := strings.Cut(b.Name, "/")
		if _, ok := tops[b.pkg]; !ok {
			pkgs = append(pkgs, b.pkg)
		}
		if !slices.Contains(tops[b.pkg], top) {
			tops[b.pkg] = append(tops[b.pkg], top)
		}
	}
	for _, pkg := range pkgs {
		pattern := "^(" + strings.Join(tops[pkg], "|") + ")$"
		cmd := exec.Command("go", "test", "-run=^$", "-bench="+pattern,
			"-benchtime="+pinnedBenchtime, "-benchmem", "-count=1", pkg)
		cmd.Env = env
		out, err := cmd.CombinedOutput()
		if err != nil {
			return fmt.Errorf("go test -bench %s %s: %v\n%s", pattern, pkg, err, out)
		}
		for _, r := range parseBench(string(out)) {
			for i := range benches {
				if b := &benches[i]; b.pkg == r.pkg && b.Name == r.Name && b.AllocsPerOp <= 1 {
					*b = r
				}
			}
		}
	}
	return nil
}

func main() {
	out := flag.String("out", "BENCH_SEED.json", "output path")
	flag.Parse()

	// Pin to the real core count: the snapshot must record what the
	// hardware can do, not what an inherited GOMAXPROCS happened to allow.
	runtime.GOMAXPROCS(runtime.NumCPU())

	serialMs, serialOut := timeSuite(1)
	parallelMs, parallelOut := timeSuite(0) // 0 = GOMAXPROCS
	if serialOut != parallelOut {
		fmt.Fprintln(os.Stderr, "lightpc-benchseed: serial and parallel suite outputs diverged")
		os.Exit(1)
	}

	fullSerialMs, fullSerialRange, fullSerialOut, err := timeFull(1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lightpc-benchseed: %v\n", err)
		os.Exit(1)
	}
	fullParallelMs, fullParallelRange, fullParallelOut, err := timeFull(runtime.NumCPU())
	if err != nil {
		fmt.Fprintf(os.Stderr, "lightpc-benchseed: %v\n", err)
		os.Exit(1)
	}
	if fullSerialOut != fullParallelOut {
		fmt.Fprintln(os.Stderr, "lightpc-benchseed: serial and parallel full-fidelity outputs diverged")
		os.Exit(1)
	}

	sweepRebuildMs, sweepForkMs, sweepRebuildOut, sweepForkOut, err := timeSweep()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lightpc-benchseed: sweep cell: %v\n", err)
		os.Exit(1)
	}
	if sweepRebuildOut != sweepForkOut {
		fmt.Fprintln(os.Stderr, "lightpc-benchseed: rebuild and fork sweep outcomes diverged")
		os.Exit(1)
	}

	s := seed{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		SerialMs:   serialMs,
		ParallelMs: parallelMs,
		SpeedupX:   serialMs / parallelMs,

		FullSerialMs:        fullSerialMs,
		FullSerialRangeMs:   fullSerialRange,
		FullParallelMs:      fullParallelMs,
		FullParallelRangeMs: fullParallelRange,

		SweepRebuildMs: sweepRebuildMs,
		SweepForkMs:    sweepForkMs,
		SweepSpeedupX:  sweepRebuildMs / sweepForkMs,
	}

	// Root package: one iteration per figure benchmark (they run whole
	// experiment suites). internal/sim: the per-cell RNG split and the
	// latency histogram's Add (pinned at 0 allocs/op).
	// internal/obs: the disabled-instrument overhead benches, where allocs/op
	// is the number under regression watch (it must stay 0) — a platform
	// built without a tracer must pay nothing.
	// internal/linetab: the paged device-metadata tables, whose steady-state
	// Get/Set/Flight paths are also pinned at 0 allocs/op.
	// internal/energy: the meter charge paths — the disabled (nil) meter
	// benches are pinned at 0 allocs/op like the disabled obs instruments.
	// internal/linetab also carries the per-table Clone microbenches, and
	// internal/crashpoint the fork-vs-rebuild sweep-cell comparison.
	// internal/pmemdimm: the LRU tier's and the whole DIMM's steady state
	// (pinned at 0 allocs/op) and the per-fork copy of a full DIMM.
	// internal/psm: a warmed PSM's read/write mix, pinned at 0 allocs/op
	// with its latency histograms live.
	// internal/workload: the Table II generators' batch fills, pinned at 0
	// allocs/op, in ns per reference; internal/cpu: the LegacyPC reference
	// path (generators, interleaver, DRAM controller) in ns per reference.
	cmd := exec.Command("go", "test", "-run=^$", "-bench=.", "-benchtime=1x", "-benchmem", "-count=1", ".", "./internal/sim", "./internal/obs", "./internal/linetab", "./internal/energy", "./internal/crashpoint", "./internal/pmemdimm", "./internal/psm", "./internal/workload", "./internal/cpu")
	// The bench subprocess must also see the real core count, both so the
	// parallel benches (which skip below 2) get their chance and so the
	// "-N" name suffix matches what parseBench strips.
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
	bout, err := cmd.CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lightpc-benchseed: go test -bench: %v\n%s", err, bout)
		os.Exit(1)
	}
	s.Benches = parseBench(string(bout))
	if len(s.Benches) == 0 {
		fmt.Fprintln(os.Stderr, "lightpc-benchseed: no benchmark lines parsed")
		os.Exit(1)
	}
	if err := rerunPinned(s.Benches, cmd.Env); err != nil {
		fmt.Fprintf(os.Stderr, "lightpc-benchseed: %v\n", err)
		os.Exit(1)
	}

	j, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "lightpc-benchseed: %v\n", err)
		os.Exit(1)
	}
	j = append(j, '\n')
	if err := os.WriteFile(*out, j, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "lightpc-benchseed: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %d benches on %d CPU(s), suite %.0fms serial / %.0fms at -j %d (%.2fx), full fidelity %.0fms serial / %.0fms at -j %d, sweep cell %.0fms rebuilt / %.0fms forked (%.2fx)\n",
		*out, len(s.Benches), s.NumCPU, s.SerialMs, s.ParallelMs, s.GOMAXPROCS, s.SpeedupX,
		s.FullSerialMs, s.FullParallelMs, s.NumCPU,
		s.SweepRebuildMs, s.SweepForkMs, s.SweepSpeedupX)
	if s.NumCPU < 2 {
		fmt.Println("note: single-CPU host — the -j speedup above is nominal, not evidence of scaling")
	}
}
