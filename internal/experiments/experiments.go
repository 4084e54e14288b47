// Package experiments contains one harness per table and figure of the
// paper's evaluation (Sections II, III, and VI). Each harness runs the
// relevant models, returns a structured result, and renders the same
// rows/series the paper reports. EXPERIMENTS.md records paper-vs-measured
// for every entry.
package experiments

import (
	"sync"

	lightpc "repro"
	"repro/internal/cpu"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options tunes every harness.
type Options struct {
	// SampleOps is the number of memory-level references sampled per
	// workload run (results scale linearly in the reference count).
	SampleOps uint64
	// Seed drives every stochastic element.
	Seed uint64
	// Quick shrinks the heaviest sweeps (used by unit tests).
	Quick bool

	// Jobs caps the runner's worker count for the grid-shaped harnesses.
	// 0 means GOMAXPROCS; 1 forces serial execution. Output is
	// byte-for-byte identical at every setting (see internal/runner).
	Jobs int
	// Par is unused: it was the worker count of the retired island-parallel
	// engine. It stays only because cmd/lightpc-benchmark, a separate
	// module pinned by the repository benchmark, still assigns it; remove
	// it together with that assignment.
	Par int

	// OnCellStart and OnCellDone observe runner cells as workers pick
	// them up and finish them (the CLI's -progress reporting). They may
	// be called concurrently.
	OnCellStart func(label string)
	OnCellDone  func(label string)
}

// pool builds the runner pool every grid harness executes on.
func (o Options) pool() runner.Pool {
	return runner.Pool{Workers: o.Jobs, OnStart: o.OnCellStart, OnDone: o.OnCellDone}
}

// cell derives the options one runner cell runs with: same fidelity, an
// independent sub-seed named by the label. Runs whose results are compared
// against each other (one workload on different platforms or modes) must
// run the identical reference stream — cross-platform ratios must compare
// the same program — so a cross-platform harness makes one cell per
// workload, labelled by the workload alone, and replays that cell's
// recorded streams on every platform it compares.
func (o Options) cell(label string) Options {
	o.Seed = sim.SubSeed(o.Seed, label)
	o.Jobs = 1
	o.OnCellStart, o.OnCellDone = nil, nil
	return o
}

// DefaultOptions is the full-fidelity configuration.
func DefaultOptions() Options {
	return Options{SampleOps: 50_000, Seed: 1}
}

// QuickOptions is used by tests and smoke runs.
func QuickOptions() Options {
	return Options{SampleOps: 8_000, Seed: 1, Quick: true}
}

// config is the platform configuration of the given kind with the
// options applied.
func config(kind lightpc.Kind, o Options) lightpc.Config {
	cfg := lightpc.DefaultConfig(kind)
	cfg.SampleOps = o.SampleOps
	cfg.Seed = o.Seed
	return cfg
}

// runOn executes one Table II workload on a fresh platform of the kind.
func runOn(kind lightpc.Kind, spec workload.Spec, o Options) (lightpc.RunResult, *lightpc.Platform) {
	p := lightpc.New(config(kind, o))
	return p.Run(spec), p
}

// runOnKinds runs one Table II workload on a fresh platform of each kind,
// as runOn does for one kind, but generates the streams once and replays
// them on every platform (each kind's CPU has the same core count, so one
// Fanout serves all). f reads each run and its platform before the next
// platform is built.
func runOnKinds[R any](kinds []lightpc.Kind, spec workload.Spec, o Options, f func(lightpc.RunResult, *lightpc.Platform) R) []R {
	out := make([]R, len(kinds))
	cores := config(kinds[0], o).CPU.Cores
	withRecording(cpu.Fanout(spec, cores, o.SampleOps, o.Seed), func(rec *workload.Recording) {
		for i, k := range kinds {
			p := lightpc.New(config(k, o))
			out[i] = f(p.RunGenerators(spec.Name, rec.Generators(), spec.MultiThread), p)
		}
	})
	return out
}

// recBufs recycles the reference buffers of workload recordings across
// cells and passes: a single-threaded spec's streams at full fidelity fill
// 4.4 MB. A buffer is memory, never state: a cell takes one, records into
// it, and gives it back after its last replay, so no two cells hold one
// buffer at the same time. The list is shared by the runner's workers, so
// a mutex guards it; sync.Pool would drop the buffers every other GC, and
// a full-fidelity lightpc-bench run collects 11 times.
var recBufs struct {
	mu   sync.Mutex
	free [][]workload.Ref
}

// maxFreeRecBufs bounds how many idle buffers the free list keeps. A -j N
// run holds at most N buffers at once, so the bound only matters at large
// N, where it stops idle buffers from pinning memory.
const maxFreeRecBufs = 8

// withRecording drains gens once into a recycled buffer and calls run with
// the recording, which must not be read after run returns.
func withRecording(gens []workload.Generator, run func(*workload.Recording)) {
	recBufs.mu.Lock()
	var buf []workload.Ref
	if n := len(recBufs.free); n > 0 {
		buf = recBufs.free[n-1]
		recBufs.free = recBufs.free[:n-1]
	}
	recBufs.mu.Unlock()

	rec := workload.Record(gens, buf)
	run(rec)

	recBufs.mu.Lock()
	if len(recBufs.free) < maxFreeRecBufs {
		recBufs.free = append(recBufs.free, rec.Buffer())
	}
	recBufs.mu.Unlock()
}

// scaleToFull extrapolates a sampled run to the workload's full Table II
// reference count (results are linear in references).
func scaleToFull(spec workload.Spec, sampleOps uint64) float64 {
	if sampleOps == 0 {
		return 1
	}
	return (spec.Reads + spec.Writes) / float64(sampleOps)
}

// specs returns the benchmark list, trimmed in quick mode.
func specs(o Options) []workload.Spec {
	all := workload.Table2()
	if o.Quick {
		return []workload.Spec{all[0], all[3], all[9], all[13]} // AES, AMG, astar, Redis
	}
	return all
}

// fpgaHz is the prototype core clock (Table I).
const fpgaHz = 4e8

// asicHz is the signed-off ASIC clock (Table I).
const asicHz = 1.6e9
