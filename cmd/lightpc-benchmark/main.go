// Command lightpc-benchmark is the repository benchmark. It drives four
// seeded, closed-loop workloads (one client, no think time, one process,
// Jobs=1 and Par=1) through the simulator's public functions, times them
// from outside, checks every output, and prints each metric by name with
// its unit:
//
//	lightpc-benchmark -workload all -seed 1            # end-to-end metrics
//	lightpc-benchmark -workload oc-pmem -trace 1       # per-layer metrics
//	lightpc-benchmark compare -old DIR -new DIR        # paired verdicts
//
// A run prints "metric <workload> <name> <value> <unit>" and "info" lines,
// then, last, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With -trace 0 the metrics are the end-to-end ones, measured
// untraced; with -trace 1 they are the per-layer ones, and the run also
// writes a Chrome trace-event file and a CPU profile under -outdir.
//
// The workloads, metrics and bounds are described in README.md next to
// this file and listed in BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/obs"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// defaultSeconds is the measurement budget of one workload run; it is
// BENCHMARK.json's run_seconds.
const defaultSeconds = 28

// runOptions are one invocation's settings.
type runOptions struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	outdir   string
	scale    string
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lightpc-benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o runOptions
	wl := fs.String("workload", "all", "workload to run: oc-pmem, legacy-dram, crash-sweep, figures, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed (1 is the default, 2 is held out for confirming claims)")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "measurement budget per workload; whole rounds run until the next would overrun it")
	traceLevel := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.traceOut, "trace-out", "", "Chrome trace-event file of a traced run (default <outdir>/trace-<workload>-seed<N>.json)")
	fs.StringVar(&o.outdir, "outdir", ".bench_build", "directory for traces and CPU profiles")
	fs.StringVar(&o.scale, "scale", "full", "workload size: full (the benchmark) or smoke (seconds-long, for tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "lightpc-benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *traceLevel != 0 && *traceLevel != 1 {
		fmt.Fprintf(stderr, "lightpc-benchmark: -trace must be 0 or 1, got %d\n", *traceLevel)
		return 2
	}
	o.trace = *traceLevel == 1
	if _, ok := scales[o.scale]; !ok {
		fmt.Fprintf(stderr, "lightpc-benchmark: unknown -scale %q\n", o.scale)
		return 2
	}
	if o.seconds < 0 {
		fmt.Fprintf(stderr, "lightpc-benchmark: -seconds must not be negative\n")
		return 2
	}
	var defs []workloadDef
	if *wl == "all" {
		defs = workloads
	} else if d, ok := workloadByName(*wl); ok {
		defs = []workloadDef{d}
	} else {
		fmt.Fprintf(stderr, "lightpc-benchmark: unknown workload %q\n", *wl)
		return 2
	}
	if o.traceOut != "" && len(defs) > 1 {
		fmt.Fprintf(stderr, "lightpc-benchmark: -trace-out needs a single -workload\n")
		return 2
	}

	// The simulator is single-threaded. On a small host a second P mostly
	// runs the garbage collector beside the simulation, on a CPU that may be
	// the simulation's own hyperthread sibling; one P made every timing
	// steadier and no slower.
	runtime.GOMAXPROCS(1)
	code := 0
	for _, d := range defs {
		res, err := runWorkload(d, o)
		if err != nil {
			fmt.Fprintf(stderr, "lightpc-benchmark: %s: %v\n", d.Name, err)
			return 1
		}
		if err := res.print(stdout); err != nil {
			fmt.Fprintf(stderr, "lightpc-benchmark: %v\n", err)
			return 1
		}
		if !res.Correct {
			for _, f := range res.failures {
				fmt.Fprintf(stderr, "lightpc-benchmark: %s: %s\n", d.Name, f)
			}
			code = 1
		}
	}
	return code
}

// metricValue is one metric as the result JSON carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run's report.
type result struct {
	workload string
	header   string
	metrics  []metricDef
	values   map[string]float64
	info     [][2]string
	failures []string

	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the metric and info lines, then the result JSON as the last
// line.
func (r *result) print(w io.Writer) error {
	fmt.Fprintln(w, r.header)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %s %s %v %s\n", r.workload, m.Name, r.values[m.Name], m.Unit)
	}
	for _, kv := range r.info {
		fmt.Fprintf(w, "info %s %s %s\n", r.workload, kv[0], kv[1])
	}
	js, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", js)
	return err
}

// runWorkload runs one workload, untraced or traced, and assembles its
// report.
func runWorkload(d workloadDef, o runOptions) (*result, error) {
	b := newBench(d.Name, o.seed, scales[o.scale], time.Duration(o.seconds*float64(time.Second)), o.trace)
	var profPath, tracePath string
	if o.trace {
		if err := os.MkdirAll(o.outdir, 0o755); err != nil {
			return nil, err
		}
		profPath = filepath.Join(o.outdir, fmt.Sprintf("cpu-%s-seed%d.pprof", d.Name, o.seed))
		tracePath = o.traceOut
		if tracePath == "" {
			tracePath = filepath.Join(o.outdir, fmt.Sprintf("trace-%s-seed%d.json", d.Name, o.seed))
		}
	}

	cpuBefore := readCPUClasses()
	stopProfile := func() error { return nil }
	if o.trace {
		var err error
		if stopProfile, err = startProfile(profPath); err != nil {
			return nil, err
		}
	}
	runErr := d.run(b)
	profErr := stopProfile()
	if err := errors.Join(runErr, profErr); err != nil {
		return nil, err
	}
	gcFrac := readCPUClasses().gcFraction(cpuBefore)

	res := &result{
		workload: d.Name,
		header: fmt.Sprintf("# lightpc-benchmark workload=%s seed=%d seconds=%g trace=%t scale=%s gomaxprocs=%d nproc=%d %s",
			d.Name, o.seed, o.seconds, o.trace, o.scale, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version()),
		failures:  b.failures,
		Attempted: b.attempted,
		Failed:    b.failed,
		Correct:   b.failed == 0 && b.attempted > 0,
		Metrics:   map[string]metricValue{},
	}
	if o.trace {
		res.metrics = perLayer
		res.values = b.layers
		b.layers["runtime.gc_cpu_frac"] = gcFrac
		b.layers["runtime.max_rss_mb"] = maxRSSMB()
		b.layers["trace.overhead_frac"] = b.overhead()
		shares, sum, err := hostShares(profPath)
		if err != nil {
			return nil, err
		}
		for pkg, s := range shares {
			b.layers["host_share."+pkg] = s
		}
		b.note("host_share_sum_pct", fmt.Sprintf("%.4g", sum))
		if err := writeTrace(b.tr, tracePath); err != nil {
			return nil, err
		}
		b.note("trace_events", fmt.Sprint(b.tr.Len()))
		b.note("trace_file", tracePath)
		b.note("cpu_profile", profPath)
	} else {
		res.metrics = endToEnd
		res.values = b.endToEnd()
	}
	b.note("error_rate", fmt.Sprintf("%g", ratio(float64(b.failed), float64(b.attempted))))
	res.info = b.info
	for _, m := range res.metrics {
		res.Metrics[m.Name] = metricValue{Value: res.values[m.Name], Unit: m.Unit}
	}
	return res, nil
}

// startProfile starts the traced run's CPU profile; the returned function
// stops it and closes the file.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeTrace writes the run's spans as a Chrome trace-event document and
// checks the written bytes with obs.ValidateChromeTrace.
func writeTrace(tr *obs.Tracer, path string) error {
	data := obs.ChromeTraceBytes([]string{"lightpc-benchmark"}, tr)
	if err := obs.ValidateChromeTrace(data); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	if tr.Lost() > 0 {
		return fmt.Errorf("trace buffer dropped %d events", tr.Lost())
	}
	return nil
}

// cpuClasses is a reading of the runtime's CPU-time accounting.
type cpuClasses struct{ gc, total float64 }

func readCPUClasses() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuClasses{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// gcFraction is the share of CPU time spent in the garbage collector since
// the earlier reading.
func (c cpuClasses) gcFraction(before cpuClasses) float64 {
	return ratio(c.gc-before.gc, c.total-before.total)
}

// maxRSSMB is the process's peak resident set.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
