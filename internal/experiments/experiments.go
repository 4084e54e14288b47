// Package experiments contains one harness per table and figure of the
// paper's evaluation (Sections II, III, and VI). Each harness runs the
// relevant models, returns a structured result, and renders the same
// rows/series the paper reports. EXPERIMENTS.md records paper-vs-measured
// for every entry.
package experiments

import (
	lightpc "repro"
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
// independent sub-seed named by the label. Cells whose results are
// compared against each other (the same workload on different platforms)
// must share a label so they run the identical reference stream —
// cross-platform ratios must compare the same program.
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
