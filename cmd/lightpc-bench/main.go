// Command lightpc-bench runs the paper's evaluation experiments and prints
// the tables/series each figure reports.
//
// Usage:
//
//	lightpc-bench                 # run everything at full fidelity
//	lightpc-bench -exp fig15      # one experiment
//	lightpc-bench -list           # list experiment ids
//	lightpc-bench -quick          # trimmed sweeps (CI smoke)
//	lightpc-bench -samples 200000 # more samples per workload run
//	lightpc-bench -j 8            # run grid cells on 8 workers
//	lightpc-bench -progress       # per-cell wall-clock progress on stderr
//	lightpc-bench -quick -cpuprofile cpu.out   # pprof the suite
//	lightpc-bench -quick -memprofile mem.out   # heap profile at exit
//
// The grid-shaped experiments decompose into independent cells executed
// across -j workers (internal/runner). The tables are byte-for-byte
// identical at any -j, including the fully serial -j 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
)

// progressReporter prints one line per finished cell with its wall-clock
// time. Workers call the hooks concurrently.
type progressReporter struct {
	mu     sync.Mutex
	out    io.Writer
	starts map[string]time.Time
	done   int
}

func newProgressReporter(out io.Writer) *progressReporter {
	return &progressReporter{out: out, starts: map[string]time.Time{}}
}

func (p *progressReporter) onStart(label string) {
	p.mu.Lock()
	p.starts[label] = time.Now()
	p.mu.Unlock()
}

func (p *progressReporter) onDone(label string) {
	p.mu.Lock()
	elapsed := time.Since(p.starts[label])
	delete(p.starts, label)
	p.done++
	n := p.done
	p.mu.Unlock()
	fmt.Fprintf(p.out, "[%4d] %-40s %8.1fms\n",
		n, label, float64(elapsed.Microseconds())/1000)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the tables to stdout and
// diagnostics to stderr, and returns the exit code (2 for bad flags).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lightpc-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment id (see -list) or 'all'")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		quick    = fs.Bool("quick", false, "use trimmed sweeps")
		samples  = fs.Uint64("samples", 0, "memory references sampled per run (0 = default)")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		format   = fs.String("format", "text", "output format: text | json")
		jobs     = fs.Int("j", 0, "worker count for grid cells (0 = GOMAXPROCS, 1 = serial)")
		progress = fs.Bool("progress", false, "report per-cell wall-clock progress on stderr")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "lightpc-bench: unknown -format %q (want text or json)\n", *format)
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(stderr, "lightpc-bench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "lightpc-bench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(stderr, "lightpc-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "lightpc-bench: %v\n", err)
			}
		}()
	}

	if *list {
		for _, n := range experiments.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", n.ID, n.Desc)
		}
		return 0
	}

	o := experiments.DefaultOptions()
	if *quick {
		o = experiments.QuickOptions()
	}
	if *samples > 0 {
		o.SampleOps = *samples
	}
	o.Seed = *seed
	o.Jobs = *jobs
	if *progress {
		rep := newProgressReporter(stderr)
		o.OnCellStart = rep.onStart
		o.OnCellDone = rep.onDone
		j := o.Jobs
		if j <= 0 {
			j = runtime.GOMAXPROCS(0)
		}
		fmt.Fprintf(stderr, "lightpc-bench: %d workers\n", j)
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	emit := func(n experiments.Named, tables []*report.Table) error {
		if *format == "json" {
			payload := struct {
				ID     string          `json:"id"`
				Desc   string          `json:"description"`
				Tables []*report.Table `json:"tables"`
			}{n.ID, n.Desc, tables}
			return enc.Encode(payload)
		}
		for _, t := range tables {
			fmt.Fprintln(stdout, t.String())
		}
		return nil
	}

	if *exp == "all" {
		start := time.Now()
		for _, out := range experiments.RunAll(o) {
			if err := emit(out.Named, out.Tables); err != nil {
				fmt.Fprintf(stderr, "lightpc-bench: %v\n", err)
				return 1
			}
		}
		if *progress {
			fmt.Fprintf(stderr, "lightpc-bench: suite completed in %.1fs\n",
				time.Since(start).Seconds())
		}
		return 0
	}
	n, ok := experiments.ByID(*exp)
	if !ok {
		fmt.Fprintf(stderr, "lightpc-bench: unknown experiment %q (try -list)\n", *exp)
		return 2
	}
	if err := emit(n, n.Run(o)); err != nil {
		fmt.Fprintf(stderr, "lightpc-bench: %v\n", err)
		return 1
	}
	return 0
}
