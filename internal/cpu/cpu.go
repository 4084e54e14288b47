// Package cpu models the prototype's multicore processor (Table I: eight
// RV64 7-stage out-of-order cores, 400 MHz on FPGA / 1.6 GHz signed-off
// ASIC) at the level the evaluation measures: instructions retired, cycles,
// IPC, and memory stall time.
//
// Cores consume workload reference streams. Pre-decided L1 hits retire at
// pipeline speed; misses go to the shared memory backend and stall the core
// for a configurable fraction of the service time (the out-of-order window
// hides the rest). Store misses are posted through a store buffer and stall
// only on acknowledgement backpressure.
package cpu

import (
	"repro/internal/cache"
	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config parameterizes the processor.
type Config struct {
	Cores int
	// FreqHz is the core clock (Table I: 4e8 FPGA, 1.6e9 ASIC).
	FreqHz float64
	// HitCycles is the L1 hit cost visible to the pipeline.
	HitCycles int
	// ReadStallOverlap is the fraction of a read miss's service time the
	// core actually stalls (the OoO window hides the rest).
	ReadStallOverlap float64
	// WriteStallOverlap is the same for store acknowledgements (posted
	// through the store buffer, so much lower).
	WriteStallOverlap float64

	// Energy optionally holds one meter per core (energy.CPUCoreSpec
	// states). Run marks cores that drive a generator active and the rest
	// idle, then integrates every meter over the run window — all outside
	// the per-reference hot loop, so metering costs the loop nothing.
	Energy []*energy.Meter
}

// DefaultConfig is the FPGA prototype clocked at 400 MHz.
func DefaultConfig() Config {
	return Config{
		Cores:             8,
		FreqHz:            4e8,
		HitCycles:         2,
		ReadStallOverlap:  0.75,
		WriteStallOverlap: 0.30,
	}
}

// Result summarizes one run.
type Result struct {
	Instructions uint64
	MemOps       uint64
	ReadMisses   uint64
	WriteMisses  uint64

	// Elapsed is the wall-clock of the slowest core.
	Elapsed sim.Duration
	// Cycles is Elapsed expressed in core clocks.
	Cycles int64
	// StallTime is the summed memory stall across cores.
	StallTime sim.Duration

	// Stats merges the generators' traffic characterization.
	Stats trace.Stats
}

// IPC reports average per-core instructions per cycle.
func (r Result) IPC(cores int) float64 {
	if r.Cycles == 0 || cores == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles) / float64(cores)
}

// StallFraction reports the share of total core-time spent stalled on
// memory (Figure 14's y-axis).
func (r Result) StallFraction(cores int) float64 {
	total := sim.Duration(cores) * r.Elapsed
	if total == 0 {
		return 0
	}
	return float64(r.StallTime) / float64(total)
}

// Run executes one generator per core against the shared backend, starting
// at time start, and returns the merged result. Cores are interleaved in
// simulated-time order so backend contention is realistic.
//
// References are pulled in batches (workload.FillBatch): each core
// prefetches up to workload.DefaultBatchSize references from its own
// generator and consumes them one by one. Because every core owns an
// independent generator, prefetching is invisible to results — the
// reference sequence each core sees, and the simulated-time interleaving
// across cores, are identical to per-reference pulls; only the number of
// interface calls changes.
func Run(cfg Config, start sim.Time, gens []workload.Generator, backend cache.Backend) Result {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.FreqHz <= 0 {
		cfg.FreqHz = 4e8
	}
	cores := make([]coreState, 0, len(gens))
	backing := make([]workload.Ref, len(gens)*workload.DefaultBatchSize)
	for i, g := range gens {
		cores = append(cores, coreState{
			gen:   g,
			batch: backing[i*workload.DefaultBatchSize : (i+1)*workload.DefaultBatchSize],
			now:   start,
		})
	}

	il := &interleaver{cfg: cfg, cores: cores, backend: backend}

	// Per-instruction-count cycle durations repeat endlessly (synthetic
	// compute gaps are capped well under the table size), so cache the exact
	// sim.Cycles results instead of redoing the float conversion per ref.
	// The hit cost is loop-invariant.
	for i := range il.cycleLUT {
		il.cycleLUT[i] = sim.Cycles(int64(i), cfg.FreqHz)
	}
	il.hitDur = sim.Cycles(int64(cfg.HitCycles), cfg.FreqHz)

	size := 1
	for size < len(cores) {
		size *= 2
	}
	il.order = make([]int32, size)
	for i := range cores {
		il.order[i] = int32(i)
	}
	il.n = len(cores)

	// Charge-on-transition energy states: a core with a generator runs
	// active for the whole window (the busy-load convention the system
	// Watts curve uses), the rest sit idle. Spare meters beyond the core
	// count stay in whatever state SnG left them.
	for i, m := range cfg.Energy {
		if i < len(gens) {
			m.SetState(start, energy.CPUActive)
		} else {
			m.SetState(start, energy.CPUIdle)
		}
	}

	var res Result
	il.run(&res)

	end := start
	for i := range cores {
		end = sim.Max(end, cores[i].now)
	}
	for _, m := range cfg.Energy {
		m.Sync(end)
	}
	res.Elapsed = end.Sub(start)
	res.Cycles = res.Elapsed.ToCycles(cfg.FreqHz)
	for _, g := range gens {
		if sg, ok := g.(interface{ Stats() trace.Stats }); ok {
			st := sg.Stats()
			res.Stats.Merge(&st)
		}
	}
	return res
}

// coreState tracks one core's reference stream and local clock.
type coreState struct {
	gen   workload.Generator
	batch []workload.Ref // window into the shared backing buffer
	pos   int            // next unconsumed ref
	fill  int            // valid refs in batch
	now   sim.Time
}

// interleaver advances the active cores in simulated-time order against
// the shared backend. order is a ring holding the n active core indices
// from order[head], sorted by (now, index): the head is always the core
// the old argmin scan would pick (strict Before comparison = lowest index
// wins ties), maintained incrementally by re-inserting the advanced core
// instead of rescanning every ref.
type interleaver struct {
	cfg     Config
	cores   []coreState
	order   []int32 // power-of-two ring; slots past the n active ones are free
	head    int
	n       int
	backend cache.Backend

	cycleLUT [128]sim.Duration
	hitDur   sim.Duration
}

// before reports whether core a sorts before core b by (now, index).
//
//lightpc:zeroalloc
func (il *interleaver) before(a, b int32) bool {
	ta, tb := il.cores[a].now, il.cores[b].now
	return ta.Before(tb) || (ta == tb && a < b)
}

// reinsert restores the order after the head core ci advanced; only the
// head's time changed, so the rest of the ring is still sorted. A core that
// still sorts before the next one stays at the head. Otherwise it leaves
// the head and is placed by scanning back from the tail, where most
// advanced cores land: over the Table II specs a core overtakes every other
// active one on about 60% of references. The scan needs no bound: ci sorts
// after the new head, with which it was just compared, so the scan stops
// at that head at the latest.
//
//lightpc:zeroalloc
func (il *interleaver) reinsert(ci int32) {
	if il.n == 1 {
		return
	}
	mask := len(il.order) - 1
	if il.before(ci, il.order[(il.head+1)&mask]) {
		return
	}
	il.head = (il.head + 1) & mask
	p := (il.head + il.n - 1) & mask // the free slot after the other n-1 cores
	for {
		q := (p - 1) & mask
		o := il.order[q]
		if il.before(o, ci) {
			break
		}
		il.order[p] = o
		p = q
	}
	il.order[p] = ci
}

// run consumes every reference from every core, accumulating into res.
// This is the per-ref hot loop behind BenchmarkRunHot: it may not allocate.
//
//lightpc:zeroalloc
func (il *interleaver) run(res *Result) {
	for il.n > 0 {
		// Advance the core that is earliest in simulated time.
		ci := il.order[il.head]
		c := &il.cores[ci]
		if c.pos == c.fill {
			//lint:allow zeroalloc refilling steps the generator, which owns its allocation budget
			c.fill = workload.FillBatch(c.gen, c.batch)
			c.pos = 0
			if c.fill == 0 {
				il.head = (il.head + 1) & (len(il.order) - 1)
				il.n--
				continue
			}
		}
		ref := c.batch[c.pos]
		c.pos++
		// Retire the compute gap plus the memory instruction itself.
		instr := ref.ComputeCycles + 1
		res.Instructions += uint64(instr)
		res.MemOps++
		if instr >= 0 && instr < len(il.cycleLUT) {
			c.now = c.now.Add(il.cycleLUT[instr])
		} else {
			c.now = c.now.Add(sim.Cycles(int64(instr), il.cfg.FreqHz))
		}

		if ref.L1Hit {
			c.now = c.now.Add(il.hitDur)
			il.reinsert(ci)
			continue
		}
		if ref.Access.Op == trace.OpRead {
			res.ReadMisses++
			//lint:allow zeroalloc the backend is an interface by design; device implementations carry the fact
			done := il.backend.Read(c.now, ref.Access.Addr)
			stall := sim.Duration(float64(done.Sub(c.now)) * il.cfg.ReadStallOverlap)
			res.StallTime += stall
			c.now = c.now.Add(stall)
		} else {
			res.WriteMisses++
			//lint:allow zeroalloc the backend is an interface by design; device implementations carry the fact
			ack := il.backend.Write(c.now, ref.Access.Addr)
			stall := sim.Duration(float64(ack.Sub(c.now)) * il.cfg.WriteStallOverlap)
			res.StallTime += stall
			c.now = c.now.Add(stall)
		}
		il.reinsert(ci)
	}
}

// Fanout builds the generator set for a spec: multithreaded workloads get
// one synthetic stream per core; single-threaded ones are pinned to core 0
// with the ambient kernel-thread traffic of Section VI ("tens of kernel
// threads") on the remaining cores.
func Fanout(spec workload.Spec, cores int, sampleOps uint64, seed uint64) []workload.Generator {
	if spec.MultiThread && cores > 1 {
		per := sampleOps / uint64(cores)
		gens := make([]workload.Generator, 0, cores)
		for i := 0; i < cores; i++ {
			gens = append(gens, workload.NewSynthetic(spec, per, seed+uint64(i)*104729))
		}
		return gens
	}
	gens := []workload.Generator{workload.NewSynthetic(spec, sampleOps, seed)}
	for i := 1; i < cores; i++ {
		gens = append(gens, workload.NewBackground(sampleOps/4, seed+uint64(i)*7177))
	}
	return gens
}
