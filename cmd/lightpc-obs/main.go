// Command lightpc-obs drives an instrumented Stop-and-Go scenario and
// exports what the observability layer recorded: a Chrome trace-event JSON
// timeline (open it in Perfetto or chrome://tracing), a Prometheus-text
// metrics snapshot, and an ASCII phase table against the PSU hold-up
// budget. Every scenario also checks that each process resumed at the
// EP-cut with the state it had before Stop; a mismatch exits 1 (a torn
// Stop that cold boots does not). All output is deterministic: same flags,
// same bytes.
//
// Usage:
//
//	lightpc-obs -trace out.json -metrics out.prom
//	lightpc-obs -platform full -workload Redis -seed 7 -trace redis.json
//	lightpc-obs -mode sweep -seeds 1,2,3,4 -j 4 -trace sweep.json
//	lightpc-obs -mode energy -workload Redis    # per-phase joule breakdown
//	lightpc-obs -cores 16 -devices 400 -psu server
//	lightpc-obs -holdup 2ms                  # force a torn stop -> cold boot
//	lightpc-obs -check-trace out.json        # validate and exit
//	lightpc-obs -check-prom out.prom         # validate and exit
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	lightpc "repro"
	"repro/internal/obs"
	"repro/internal/obs/drive"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

// writeFile writes data to path (skipped when path is empty) and names the
// artifact on stdout.
func writeFile(stdout io.Writer, path string, data []byte) error {
	if path == "" {
		return nil
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d bytes)\n", path, len(data))
	return nil
}

func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the tables and artifact
// names to stdout, and returns the exit code (2 for bad flags, 1 when the
// run, the EP-cut check or an artifact check fails).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lightpc-obs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode     = fs.String("mode", "sng", "sng (one scenario) | sweep (one cell per seed) | energy (joule breakdown)")
		platform = fs.String("platform", "full", "platform: legacy | b | full")
		seed     = fs.Uint64("seed", 1, "simulation seed (sng mode)")
		seeds    = fs.String("seeds", "1,2,3,4", "comma-separated seeds (sweep mode)")
		jobs     = fs.Int("j", 1, "sweep workers (0 = GOMAXPROCS); output is identical at any level")
		cores    = fs.Int("cores", 8, "core count")
		user     = fs.Int("user", 72, "user processes")
		kprocs   = fs.Int("kernelprocs", 48, "kernel threads")
		devices  = fs.Int("devices", 250, "dpm_list length")
		ticks    = fs.Int("ticks", 20, "scheduler ticks before the power event")
		wl       = fs.String("workload", "", "Table II workload to run first (empty = none)")
		psu      = fs.String("psu", "atx", "psu: atx | server")
		holdup   = fs.Duration("holdup", 0, "override hold-up window (0 = PSU spec)")
		energyOn = fs.Bool("energy", false, "attach per-device joule meters (implied by -mode energy)")

		traceOut = fs.String("trace", "", "write Chrome trace-event JSON here")
		promOut  = fs.String("metrics", "", "write Prometheus text snapshot here")
		jsonOut  = fs.String("metrics-json", "", "write JSON metrics snapshot here")
		quiet    = fs.Bool("q", false, "suppress the phase table")

		checkTrace = fs.String("check-trace", "", "validate a Chrome trace JSON file and exit")
		checkProm  = fs.String("check-prom", "", "validate a Prometheus text file and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "lightpc-obs: %v\n", err)
		return code
	}

	if *checkTrace != "" || *checkProm != "" {
		if err := check(stdout, *checkTrace, *checkProm); err != nil {
			return fail(1, err)
		}
		return 0
	}

	var kind lightpc.Kind
	switch *platform {
	case "legacy":
		kind = lightpc.LegacyPC
	case "b":
		kind = lightpc.LightPCB
	case "full":
		kind = lightpc.LightPCFull
	default:
		return fail(2, fmt.Errorf("unknown platform %q (want legacy, b, or full)", *platform))
	}
	if _, err := power.PSUByName(*psu); err != nil {
		return fail(2, fmt.Errorf("-psu: %v", err))
	}
	if *wl != "" {
		if err := workload.CheckName(*wl); err != nil {
			return fail(2, err)
		}
	}
	seedList, err := parseSeeds(*seeds)
	if err != nil {
		return fail(2, fmt.Errorf("-seeds: %v", err))
	}

	sc := drive.Scenario{
		Kind:        kind,
		Seed:        *seed,
		Cores:       *cores,
		UserProcs:   *user,
		KernelProcs: *kprocs,
		Devices:     *devices,
		Ticks:       *ticks,
		Workload:    *wl,
		PSU:         *psu,
		Holdup:      sim.Duration(holdup.Nanoseconds()) * sim.Nanosecond,
		Energy:      *energyOn || *mode == "energy",
	}

	type artifact struct {
		path string
		data []byte
	}
	var artifacts []artifact
	var cells []*drive.Result
	switch *mode {
	case "sng", "energy":
		res, err := drive.SnG(sc)
		if err != nil {
			return fail(1, err)
		}
		switch {
		case *mode == "energy":
			fmt.Fprint(stdout, res.EnergyTable())
		case !*quiet:
			fmt.Fprint(stdout, res.PhaseTable())
			if sc.Energy {
				fmt.Fprint(stdout, res.EnergyTable())
			}
		}
		artifacts = []artifact{
			{*traceOut, res.ChromeTrace()},
			{*promOut, res.Registry.PrometheusBytes()},
			{*jsonOut, res.Registry.JSONBytes()},
		}
		cells = []*drive.Result{res}
	case "sweep":
		sw, err := drive.Sweep(sc, seedList, *jobs)
		if err != nil {
			return fail(1, err)
		}
		if !*quiet {
			fmt.Fprint(stdout, sw.PhaseTables())
			if sc.Energy {
				fmt.Fprint(stdout, sw.EnergyTables())
			}
		}
		artifacts = []artifact{{*traceOut, sw.ChromeTrace()}, {*promOut, sw.Prometheus()}}
		cells = sw.Cells
	default:
		return fail(2, fmt.Errorf("unknown mode %q (want sng, sweep, or energy)", *mode))
	}
	for _, a := range artifacts {
		if err := writeFile(stdout, a.path, a.data); err != nil {
			return fail(1, err)
		}
	}
	for _, c := range cells {
		if c.Diverged {
			return fail(1, fmt.Errorf("%s seed %d: EP-cut mismatch: resumed process state diverged from before Stop",
				c.Scenario.Kind, c.Scenario.Seed))
		}
	}
	return 0
}

// check validates previously written artifacts (the obs-smoke CI step).
func check(stdout io.Writer, tracePath, promPath string) error {
	if tracePath != "" {
		data, err := os.ReadFile(tracePath)
		if err != nil {
			return err
		}
		if err := obs.ValidateChromeTrace(data); err != nil {
			return fmt.Errorf("%s: %v", tracePath, err)
		}
		fmt.Fprintf(stdout, "%s: valid Chrome trace-event JSON\n", tracePath)
	}
	if promPath != "" {
		data, err := os.ReadFile(promPath)
		if err != nil {
			return err
		}
		if err := obs.ValidatePrometheus(data); err != nil {
			return fmt.Errorf("%s: %v", promPath, err)
		}
		fmt.Fprintf(stdout, "%s: valid Prometheus text exposition\n", promPath)
	}
	return nil
}
