package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	lightpc "repro"
	"repro/internal/cpu"
	"repro/internal/crashpoint"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// workloadDef is one benchmark workload. Why is the reason it exists; it is
// repeated verbatim in BENCHMARK.json.
type workloadDef struct {
	Name string
	Why  string
	run  func(b *bench) error
}

var workloads = []workloadDef{
	{"oc-pmem", "Platform.Run of every Table II spec on LightPC: about 40% of host time is in the psm/nvdimm/pram/linetab stack below memctrl",
		func(b *bench) error { return runPlatform(b, lightpc.LightPCFull) }},
	{"legacy-dram", "the same schedule on LegacyPC: shares workload/cpu/memctrl but bypasses psm/nvdimm/pram, so device-stack changes predict no change",
		func(b *bench) error { return runPlatform(b, lightpc.LegacyPC) }},
	{"crash-sweep", "Fork().CutAt power cuts over built crashpoint cells: snapshot, sng, kernel, journal, pmdk and the allocator; no cpu.Run",
		runCrashSweep},
	{"figures", "full-fidelity passes over experiments.All(), what lightpc-bench prints; the only route to fig4's pmemdimm/pmdk modes",
		runFigures},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// scale sizes the workloads. Only "full" is the benchmark; "smoke" exists
// so the tests can run every code path in a few seconds.
type scale struct {
	sampleOps uint64 // references per Platform.Run
	warmupOps uint64 // references per warm-up run during set-up
	specs     int    // Table II specs used, in table order
	cellSeeds int    // crash-sweep cells per spec per pass
	appOps    int    // application persistence ops staged per cell
	fuzzCuts  int    // seeded fuzz offsets per cell, on top of the stratified grid
	quick     bool   // figures passes at experiments.QuickOptions
}

var scales = map[string]scale{
	"full":  {sampleOps: 200_000, warmupOps: 20_000, specs: 17, cellSeeds: 8, appOps: 2000, fuzzCuts: 16},
	"smoke": {sampleOps: 4000, warmupOps: 1000, specs: 3, cellSeeds: 1, appOps: 150, fuzzCuts: 2, quick: true},
}

// figureOptions is the experiments configuration one figures pass runs
// at: the seed is used as given, so seed 1 is exactly what lightpc-bench
// prints by default. Jobs and Par are pinned to 1 so the pass measures the
// simulator, not the scheduler.
func figureOptions(seed uint64, quick bool) experiments.Options {
	o := experiments.DefaultOptions()
	if quick {
		o = experiments.QuickOptions()
	}
	o.Seed, o.Jobs, o.Par = seed, 1, 1
	return o
}

// platformOp is one oc-pmem / legacy-dram operation: a fresh platform runs
// one Table II spec with its own seed.
type platformOp struct {
	Spec workload.Spec
	Seed uint64
}

// platformSchedule derives the op list from the benchmark seed alone. Both
// platform workloads use the same schedule, so they run the same programs.
// Every round repeats it, which is what lets later rounds check the first.
func platformSchedule(seed uint64, sc scale) []platformOp {
	specs := workload.Table2()[:sc.specs]
	ops := make([]platformOp, len(specs))
	for i, s := range specs {
		ops[i] = platformOp{Spec: s, Seed: sim.SubSeed(seed, "run/"+s.Name)}
	}
	sim.NewRNG(sim.SubSeed(seed, "run/order")).Shuffle(len(ops), func(i, j int) {
		ops[i], ops[j] = ops[j], ops[i]
	})
	return ops
}

func platformConfig(kind lightpc.Kind, op platformOp, sampleOps uint64) lightpc.Config {
	cfg := lightpc.DefaultConfig(kind)
	cfg.SampleOps = sampleOps
	cfg.Seed = op.Seed
	return cfg
}

// totalRemaining is the number of references a generator set will emit.
func totalRemaining(gens []workload.Generator) uint64 {
	var n uint64
	for _, g := range gens {
		n += g.Remaining()
	}
	return n
}

// platformDigest hashes everything one run simulated: the CPU result and
// the memory device's own counters.
func platformDigest(res cpu.Result, p *lightpc.Platform) uint64 {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	must(enc.Encode(res))
	if ps := p.PSM(); ps != nil {
		must(enc.Encode(ps.Stats()))
	}
	if d := p.DRAM(); d != nil {
		r, w, hits, refs := d.Stats()
		must(enc.Encode([4]uint64{r, w, hits, refs}))
	}
	return h.Sum64()
}

// must panics on an encoding error, which only a bug can cause: every value
// hashed here is a plain struct of numbers.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// runPlatform is oc-pmem and legacy-dram: every op is lightpc.New plus
// Platform.Run of one spec at 200k references. Set-up, at the start of
// every round, builds the schedule and warms up on every spec at a tenth of
// the size.
func runPlatform(b *bench, kind lightpc.Kind) error {
	var ops []platformOp
	var first []uint64
	var model platformModel
	var lay runLayers
	var simRefs uint64
	err := b.loop(func(r int, traced bool) error {
		b.setup(func() {
			ops = platformSchedule(b.seed, b.sc)
			for _, op := range ops {
				lightpc.New(platformConfig(kind, op, b.sc.warmupOps)).Run(op.Spec)
			}
		})
		if r == 0 {
			first = make([]uint64, len(ops))
		}
		for i, op := range ops {
			cfg := platformConfig(kind, op, b.sc.sampleOps)
			want := totalRemaining(cpu.Fanout(op.Spec, cfg.CPU.Cores, cfg.SampleOps, cfg.Seed))
			var res cpu.Result
			var p *lightpc.Platform
			if traced {
				res, p = lay.run(b, cfg, op.Spec)
			} else {
				b.op(false, func() {
					p = lightpc.New(cfg)
					res = p.Run(op.Spec).Result
				})
				simRefs += res.MemOps
			}
			d := platformDigest(res, p)
			var err error
			if res.MemOps != want {
				err = fmt.Errorf("%s seed %d: simulated %d references, generators held %d", op.Spec.Name, op.Seed, res.MemOps, want)
			}
			if r == 0 {
				first[i] = d
				model.add(res, p)
			} else if err == nil && d != first[i] {
				err = fmt.Errorf("%s seed %d: round %d digest %016x differs from round 0 %016x", op.Spec.Name, op.Seed, r, d, first[i])
			}
			b.verify(err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.note("sim_digest", digestOf(first))
	b.note("sim_mrefs_per_s", fmt.Sprintf("%.6g", float64(simRefs)/b.opNs*1e3))
	model.report(b.layers)
	lay.report(b.layers)
	return nil
}

// digestOf folds per-op digests, in schedule order, into the run's
// sim_digest.
func digestOf(ds []uint64) string {
	h := fnv.New64a()
	must(json.NewEncoder(h).Encode(ds))
	return fmt.Sprintf("%016x", h.Sum64())
}

// crashCell is one crash-sweep cell: a built crashpoint system cut at every
// offset of its grid.
type crashCell struct {
	Label    string
	Scenario crashpoint.Scenario
}

// crashSchedule derives the cells of one pass from the benchmark seed.
func crashSchedule(seed uint64, sc scale) []crashCell {
	var cells []crashCell
	for _, s := range workload.Table2()[:sc.specs] {
		for k := 0; k < sc.cellSeeds; k++ {
			label := fmt.Sprintf("crash-sweep/%s/%d", s.Name, k)
			cells = append(cells, crashCell{Label: label, Scenario: crashpoint.Scenario{
				Workload: s.Name, Seed: sim.SubSeed(seed, label), AppOps: sc.appOps,
			}})
		}
	}
	sim.NewRNG(sim.SubSeed(seed, "crash-sweep/order")).Shuffle(len(cells), func(i, j int) {
		cells[i], cells[j] = cells[j], cells[i]
	})
	return cells
}

// runCrashSweep is crash-sweep: each cell's set-up is crashpoint.Build plus
// CellOffsets, and each op is Fork().CutAt(offset). Passes repeat the same
// cells, so every later pass must reproduce the first one's outcomes.
func runCrashSweep(b *bench) error {
	cells := crashSchedule(b.seed, b.sc)
	first := make([][]uint64, len(cells))
	var model crashModel
	var lay crashLayers
	err := b.loop(func(r int, traced bool) error {
		for ci, c := range cells {
			base, offsets, err := lay.setup(b, c, traced)
			if err != nil {
				return err
			}
			if r == 0 {
				model.cells++
			}
			for k, off := range offsets {
				var out crashpoint.CutOutcome
				if traced {
					out = lay.cut(b, base, off)
				} else {
					b.op(false, func() { out = base.Fork().CutAt(off) })
				}
				js, err := json.Marshal(out)
				must(err)
				h := fnv.New64a()
				h.Write(js)
				d := h.Sum64()
				if len(out.Violations) > 0 {
					err = fmt.Errorf("%s cut at %v: %d violations, first: %v", c.Label, off, len(out.Violations), out.Violations[0])
				}
				if r == 0 {
					first[ci] = append(first[ci], d)
					model.add(out)
				} else if err == nil && (k >= len(first[ci]) || d != first[ci][k]) {
					err = fmt.Errorf("%s cut at %v: pass %d outcome differs from pass 0", c.Label, off, r)
				}
				b.verify(err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var all []uint64
	for _, ds := range first {
		all = append(all, ds...)
	}
	b.note("sim_digest", digestOf(all))
	model.report(b.layers)
	lay.report(b.layers)
	return nil
}

// figureExp is one entry of experiments.All(), run so that headline
// experiments also hand back their structured result.
type figureExp struct {
	ID  string
	run headlineRun
}

func figureList() []figureExp {
	var list []figureExp
	for _, n := range experiments.All() {
		run, ok := headlineRuns[n.ID]
		if !ok {
			run = func(o experiments.Options) ([]*report.Table, map[string]float64) { return n.Run(o), nil }
		}
		list = append(list, figureExp{ID: n.ID, run: run})
	}
	return list
}

// render is the bytes lightpc-bench prints for one experiment's tables.
func render(tables []*report.Table) []byte {
	var out []byte
	for _, t := range tables {
		out = append(out, t.String()...)
		out = append(out, '\n')
	}
	return out
}

// runFigures is figures: each op is one full-fidelity pass over every
// experiment, timed and checked experiment by experiment; set-up, at the
// start of every pass, is a quick pass at a smaller sample size. Every pass
// must render exactly what the first one did.
//
// The end-to-end timings are per pass, not per experiment: the experiments
// run from microseconds to more than a second, so a median over them is the
// time of whichever two experiments sit in the middle, 10–30 ms each and as
// noisy as anything that short.
func runFigures(b *bench) error {
	b.roundIsOp = true
	exps := figureList()
	o := figureOptions(b.seed, b.sc.quick)
	first := make([]uint64, len(exps))
	measured := map[string]float64{}
	expNs := map[string]float64{}
	tracedPasses := 0
	err := b.loop(func(r int, traced bool) error {
		b.setup(func() {
			o := figureOptions(b.seed, true)
			o.SampleOps = b.sc.warmupOps
			for _, e := range exps {
				e.run(o)
			}
		})
		if traced {
			tracedPasses++
		}
		for i, e := range exps {
			var tables []*report.Table
			var vals map[string]float64
			b.op(traced, func() {
				t := time.Now()
				tables, vals = e.run(o)
				if traced {
					end := time.Now()
					b.span("experiments."+e.ID, t, end)
					expNs[e.ID] += float64(end.Sub(t))
				}
			})
			h := fnv.New64a()
			h.Write(render(tables))
			d := h.Sum64()
			var err error
			if r == 0 {
				first[i] = d
				for k, v := range vals {
					measured[k] = v
				}
			} else if d != first[i] {
				err = fmt.Errorf("%s: pass %d rendered %016x, pass 0 %016x", e.ID, r, d, first[i])
			}
			b.verify(err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, h := range headlines {
		if _, ok := measured[h.Name]; !ok {
			return fmt.Errorf("experiment %s produced no %s headline", h.Exp, h.Name)
		}
	}
	b.note("sim_digest", digestOf(first))
	per, mean := accuracy(measured)
	b.note("paper_error_pct", fmt.Sprintf("%.6g", mean))
	b.layers["accuracy.paper_error_pct"] = mean
	for _, h := range headlines {
		b.layers["accuracy."+h.Name+"_err_pct"] = per[h.Name]
	}
	if tracedPasses > 0 {
		for _, id := range figureLayers {
			b.layers["experiments."+id+"_ms"] = expNs[id] / float64(tracedPasses) / 1e6
			delete(expNs, id)
		}
		rest := 0.0
		for _, ns := range expNs {
			rest += ns
		}
		b.layers["experiments.rest_ms"] = rest / float64(tracedPasses) / 1e6
	}
	return nil
}
