// Command lightpc-crash is the crash-point adversary: it drops the power
// rails at chosen (or searched, or fuzzed) instants of the SnG Stop
// sequence and checks every recovery invariant — committed cuts must
// restore the exact pre-cut system, uncommitted cuts must cold-boot to a
// byte-clean pre-cut state with no staged residue readable anywhere.
//
// Usage:
//
//	lightpc-crash -mode cut -offset 4ms            # one cut, one verdict
//	lightpc-crash -mode bisect                     # locate the commit instant
//	lightpc-crash -mode sweep -seeds 1,2 -j 4      # cut matrix over workloads
//	lightpc-crash -mode enum -target all           # word-granular enumeration
//
// All output is deterministic: same flags, same bytes (sweep included, at
// any -j). The exit status is 1 when any invariant is violated and 2 for a
// bad flag value.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/crashpoint"
	"repro/internal/sim"
	"repro/internal/workload"
)

// enumTargets are the -target names in the order enum mode runs them: each
// enumerates every word-granular write prefix of one persistence mechanism.
var enumTargets = []struct {
	name  string
	check func(seed uint64) []crashpoint.Violation
}{
	{"pool", func(seed uint64) []crashpoint.Violation { return crashpoint.CheckPool(seed, 6, 5) }},
	{"ckpt", func(seed uint64) []crashpoint.Violation { return crashpoint.CheckManager(seed, 40) }},
	{"hibernate", func(seed uint64) []crashpoint.Violation { return crashpoint.CheckHibernate(seed, 5) }},
	{"journal", func(seed uint64) []crashpoint.Violation { return crashpoint.CheckJournal(seed, 30) }},
}

// parseTargets splits a -target list and rejects any name enum mode does
// not know; "all" selects every target.
func parseTargets(s string) ([]string, error) {
	known := []string{"all"}
	for _, t := range enumTargets {
		known = append(known, t.name)
	}
	names := parseList(s)
	for _, name := range names {
		if !slices.Contains(known, name) {
			return nil, fmt.Errorf("unknown target %q (want %s)", name, strings.Join(known, ", "))
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no targets in %q", s)
	}
	return names, nil
}

func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, f := range parseList(s) {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %v", f, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no seeds in %q", s)
	}
	return out, nil
}

func parseList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// emit prints v as indented JSON (the machine-readable report).
func emit(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the reports and the
// verdict to stdout, and returns the exit code (2 for bad flags, 1 when an
// invariant is violated or the run fails).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lightpc-crash", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode    = fs.String("mode", "cut", "cut | bisect | sweep | enum")
		seed    = fs.Uint64("seed", 1, "simulation seed")
		seeds   = fs.String("seeds", "1", "comma-separated seeds (sweep mode)")
		wl      = fs.String("workload", "Redis", "Table II workload driving the application phase")
		wls     = fs.String("workloads", "Redis,SQLite", "comma-separated workloads (sweep mode)")
		cores   = fs.Int("cores", 4, "core count")
		user    = fs.Int("user", 24, "user processes")
		kprocs  = fs.Int("kernelprocs", 16, "kernel threads")
		devices = fs.Int("devices", 64, "dpm_list length")
		ticks   = fs.Int("ticks", 6, "scheduler ticks before the power event")
		appOps  = fs.Int("appops", 96, "application persistence operations staged before the cut")
		holdup  = fs.Duration("holdup", 0, "hold-up window (0 = ATX spec 16ms)")
		offset  = fs.Duration("offset", 0, "cut offset into the Stop sequence (cut mode)")
		cuts    = fs.Int("cuts", 8, "fuzzed cut offsets per cell on top of the stratified grid (sweep mode)")
		jobs    = fs.Int("j", 1, "sweep workers (0 = GOMAXPROCS); output is identical at any level")
		target  = fs.String("target", "all", "enum targets: pool,ckpt,hibernate,journal or all")
		quiet   = fs.Bool("q", false, "suppress the JSON report; only the verdict line")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "lightpc-crash: %v\n", err)
		return code
	}
	targets, err := parseTargets(*target)
	if err != nil {
		return fail(2, fmt.Errorf("-target: %v", err))
	}
	seedList, err := parseSeeds(*seeds)
	if err != nil {
		return fail(2, fmt.Errorf("-seeds: %v", err))
	}
	workloads := parseList(*wls)
	for _, name := range append([]string{*wl}, workloads...) {
		if err := workload.CheckName(name); err != nil {
			return fail(2, err)
		}
	}

	sc := crashpoint.Scenario{
		Seed:        *seed,
		Cores:       *cores,
		UserProcs:   *user,
		KernelProcs: *kprocs,
		Devices:     *devices,
		Ticks:       *ticks,
		Workload:    *wl,
		AppOps:      *appOps,
		Holdup:      sim.Duration(holdup.Nanoseconds()) * sim.Nanosecond,
	}

	violations := 0
	switch *mode {
	case "cut":
		s, err := crashpoint.Build(sc)
		if err != nil {
			return fail(1, err)
		}
		off := sim.Duration(offset.Nanoseconds()) * sim.Nanosecond
		if off <= 0 {
			off = s.Window
		}
		out := s.CutAt(off)
		violations = len(out.Violations)
		if !*quiet {
			if err := emit(stdout, out); err != nil {
				return fail(1, err)
			}
		}
	case "bisect":
		rep, err := crashpoint.Bisect(sc)
		if err != nil {
			return fail(1, err)
		}
		violations = len(rep.Violations)
		if !*quiet {
			stdout.Write(rep.JSON())
		}
		fmt.Fprintf(stdout, "commit instant %s into a %s window (%d probes, vulnerable [%d, %d] ps)\n",
			sim.Duration(rep.CommitInstantPs), sim.Duration(rep.WindowPs),
			len(rep.Probes), rep.FirstVulnerablePs, rep.LastVulnerablePs)
	case "sweep":
		rep, err := crashpoint.Sweep(crashpoint.SweepConfig{
			Base:        sc,
			Workloads:   workloads,
			Seeds:       seedList,
			CutsPerCell: *cuts,
			Jobs:        *jobs,
		})
		if err != nil {
			return fail(1, err)
		}
		violations = rep.TotalViolations
		if !*quiet {
			stdout.Write(rep.JSON())
		}
		fmt.Fprintf(stdout, "%d cells, %d cuts, %d violations\n",
			len(rep.Cells), rep.TotalCuts, rep.TotalViolations)
	case "enum":
		var found []crashpoint.Violation
		for _, t := range enumTargets {
			if !slices.Contains(targets, "all") && !slices.Contains(targets, t.name) {
				continue
			}
			v := t.check(*seed)
			found = append(found, v...)
			fmt.Fprintf(stdout, "enum %s: %d violations\n", t.name, len(v))
		}
		violations = len(found)
		if !*quiet && len(found) > 0 {
			if err := emit(stdout, found); err != nil {
				return fail(1, err)
			}
		}
	default:
		return fail(2, fmt.Errorf("unknown mode %q (want cut, bisect, sweep, or enum)", *mode))
	}

	if violations > 0 {
		fmt.Fprintf(stdout, "FAIL: %d invariant violations\n", violations)
		return 1
	}
	fmt.Fprintln(stdout, "OK: all recovery invariants hold")
	return 0
}
