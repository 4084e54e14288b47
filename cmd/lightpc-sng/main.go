// Command lightpc-sng demonstrates Stop-and-Go on a live simulated system:
// it boots the mini-OS, runs it for a while, pulls the power, shows the
// Stop decomposition against the PSU hold-up window, recovers with Go, and
// verifies that every parked process resumes at the exact EP-cut.
//
// Usage:
//
//	lightpc-sng
//	lightpc-sng -cores 16 -user 100 -kernelprocs 60 -devices 400 -psu server
//	lightpc-sng -holdup 2ms        # force a torn stop -> cold boot
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/kernel"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/sng"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, narrates the power cycle on
// stdout, and returns the exit code (2 for bad flags, 1 when recovery
// fails).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lightpc-sng", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cores   = fs.Int("cores", 8, "core count")
		user    = fs.Int("user", 72, "user processes")
		kprocs  = fs.Int("kernelprocs", 48, "kernel threads")
		devices = fs.Int("devices", 250, "dpm_list length")
		psuName = fs.String("psu", "atx", "psu: atx | server")
		holdup  = fs.Duration("holdup", 0, "override hold-up window (0 = PSU spec)")
		seed    = fs.Uint64("seed", 1, "simulation seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	psu, err := power.PSUByName(*psuName)
	if err != nil {
		fmt.Fprintf(stderr, "lightpc-sng: -psu: %v\n", err)
		return 2
	}

	cfg := kernel.DefaultConfig()
	cfg.Cores = *cores
	cfg.UserProcs = *user
	cfg.KernelProcs = *kprocs
	cfg.Devices = *devices
	cfg.Seed = *seed
	k := kernel.New(cfg)
	k.Tick(20)

	window := sim.Duration(psu.SpecHoldUp)
	if *holdup > 0 {
		window = sim.Duration(holdup.Nanoseconds()) * sim.Nanosecond
	}

	fmt.Fprintf(stdout, "system: %d cores, %d processes (%d sleeping), %d devices\n",
		len(k.Cores), len(k.Procs), len(k.Sleepers()), len(k.Devices))
	checksum := k.ProcsChecksum()

	s := sng.New(k)
	fmt.Fprintf(stdout, "\n-- power failure (hold-up window: %v, %s) --\n", window, psu.Name)
	rep := s.Stop(0, sim.Time(window))
	fmt.Fprintf(stdout, "Drive-to-Idle: %-10v (%d sleepers woken, %d tasks parked)\n",
		rep.ProcessStop, rep.WokenSleepers, rep.ParkedTasks)
	fmt.Fprintf(stdout, "device stop:   %-10v (%d devices, %d peripherals)\n",
		rep.DeviceStop, rep.StoppedDevices, rep.Peripherals)
	fmt.Fprintf(stdout, "offline:       %-10v (%d cache lines flushed)\n",
		rep.Offline, rep.FlushedLines)
	fmt.Fprintf(stdout, "total:         %-10v — completed: %v\n", rep.Total, rep.Completed)

	k.PowerLoss()
	fmt.Fprintln(stdout, "\n-- rails down; volatile state wiped --")

	grep, err := s.Go(0)
	if err != nil {
		fmt.Fprintf(stdout, "Go: %v\n", err)
		fmt.Fprintln(stdout, "cold boot required (no committed EP-cut)")
		return 1
	}
	fmt.Fprintf(stdout, "Go: boot %v, cores %v, devices %v (%d), processes %v (%d)\n",
		grep.BootCheck, grep.CoreBringUp, grep.DeviceResume, grep.ResumedDevices,
		grep.ProcessResume, grep.ResumedTasks)
	fmt.Fprintf(stdout, "recovery total: %v\n", grep.Total)

	// Verify exact resumption.
	for _, p := range k.Procs {
		if p.State == kernel.TaskRunnable || p.State == kernel.TaskRunning {
			p.RestoreContext()
		}
	}
	if k.ProcsChecksum() != checksum {
		fmt.Fprintln(stdout, "EP-cut MISMATCH: state diverged ✗")
		return 1
	}
	fmt.Fprintln(stdout, "EP-cut verified: every process resumed with identical state ✓")
	return 0
}
