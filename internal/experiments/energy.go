package experiments

import (
	"fmt"

	lightpc "repro"
	"repro/internal/cache"
	"repro/internal/energy"
	"repro/internal/noc"
	"repro/internal/pmemdimm"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sng"
	"repro/internal/trace"
	"repro/internal/workload"
)

// EnergyDeviceRow is one device's accumulated joules over a full power
// cycle (workload + Stop + Go), split into dynamic (per-op) and static
// (state-power) components.
type EnergyDeviceRow struct {
	Device string
	OpJ    float64
	StateJ float64
}

// EnergyKindResult is one platform's energy accounting across the cycle.
type EnergyKindResult struct {
	Kind    lightpc.Kind
	Run     lightpc.RunResult
	Stop    sng.StopReport
	Go      sng.GoReport
	Devices []EnergyDeviceRow
}

// EnergyAccounting runs one Redis power cycle (workload, ATX power
// failure, recovery) on LegacyPC and LightPC with per-device meters
// attached, and renders three tables: the per-device joule breakdown, the
// SnG per-phase attribution with the hold-up feasibility check, and a
// micro-benchmark exercising the meters the platform harness doesn't
// reach (PMEM DIMM tiers, cache hit/fill/writeback, NoC hops).
func EnergyAccounting(o Options) ([]EnergyKindResult, []*report.Table) {
	psu := power.ATX()
	spec, ok := workload.ByName("Redis")
	if !ok {
		panic("experiments: Redis missing from Table II")
	}

	devT := report.New("Energy: per-device joules across one power cycle (Redis + Stop + Go)",
		"platform", "device", "op mJ", "state mJ", "total mJ")
	phaseT := report.New("Energy: SnG phase attribution",
		"platform", "phase", "mJ", "share")

	var results []EnergyKindResult
	for _, kind := range []lightpc.Kind{lightpc.LegacyPC, lightpc.LightPCFull} {
		co := o.cell("energy/" + kind.String())
		cfg := config(kind, co)
		cfg.Energy = true
		p := lightpc.New(cfg)
		rr := p.Run(spec)
		stop := p.PowerFail(0, psu)
		gor, _ := p.Recover(0)

		res := EnergyKindResult{Kind: kind, Run: rr, Stop: stop, Go: gor}
		// Fold the per-core meters into one row; every other meter keeps
		// its own.
		var coreRow EnergyDeviceRow
		var totOp, totState float64
		addRow := func(r EnergyDeviceRow) {
			devT.Add(kind.String(), r.Device,
				report.F(r.OpJ*1e3, 4), report.F(r.StateJ*1e3, 4),
				report.F((r.OpJ+r.StateJ)*1e3, 4))
			res.Devices = append(res.Devices, r)
		}
		for _, m := range p.Energy().Meters() {
			totOp += m.OpJ()
			totState += m.StateJ()
			if len(m.Name()) > 4 && m.Name()[:4] == "core" {
				coreRow.Device = "cores"
				coreRow.OpJ += m.OpJ()
				coreRow.StateJ += m.StateJ()
				continue
			}
			addRow(EnergyDeviceRow{Device: m.Name(), OpJ: m.OpJ(), StateJ: m.StateJ()})
		}
		if coreRow.Device != "" {
			addRow(coreRow)
		}
		devT.Add(kind.String(), "total", report.F(totOp*1e3, 4),
			report.F(totState*1e3, 4), report.F((totOp+totState)*1e3, 4))

		var stopJ, goJ float64
		for _, ph := range stop.Phases {
			stopJ += ph.J
		}
		for _, ph := range gor.Phases {
			goJ += ph.J
		}
		for _, ph := range stop.Phases {
			phaseT.Add(kind.String(), "stop/"+ph.Name, report.F(ph.J*1e3, 4), report.Pct(ph.J/stopJ))
		}
		for _, ph := range gor.Phases {
			phaseT.Add(kind.String(), "go/"+ph.Name, report.F(ph.J*1e3, 4), report.Pct(ph.J/goJ))
		}
		verdict := "feasible"
		if stopJ > psu.StoredJ {
			verdict = "INFEASIBLE"
		}
		phaseT.Note("%s: stop path drew %s mJ of the %s PSU's %s mJ stored (%s) — hold-up %s",
			kind, report.F(stopJ*1e3, 4), psu.Name, report.F(psu.StoredJ*1e3, 1),
			report.Pct(stopJ/psu.StoredJ), verdict)
		results = append(results, res)
	}
	devT.Note("op = dynamic (per-operation) energy; state = static (state-power × residency) energy")

	microT := energyMicro(o)
	return results, []*report.Table{devT, phaseT, microT}
}

// energyMicro drives a PMEM DIMM behind an L1 cache plus a crossbar NoC
// with a fixed seeded access pattern, so the tier/hit-class meters the
// platform harness never reaches (PMEM SRAM/DRAM/media tiers, cache
// hit/fill/writeback/flush, per-hop NoC) produce deterministic joules.
// Each meter reads its op counts from its device's own counters.
func energyMicro(o Options) *report.Table {
	pm := pmemdimm.New(pmemdimm.DefaultConfig())
	pmM := energy.NewMeter("pmemdimm", energy.PMEMDIMMSpec(power.Default()), func(n []uint64) {
		s := pm.Stats()
		n[energy.PMEMSRAMHit] = s.SRAMHits
		n[energy.PMEMDRAMHit] = s.DRAMHits
		n[energy.PMEMMediaRead] = s.MediaReads
		n[energy.PMEMMediaWrite] = s.MediaWrites
		n[energy.PMEMCombinedWrite] = s.CombinedWrites
	})
	l1 := cache.New(cache.DefaultConfig(), pm)
	cM := energy.NewMeter("cache", energy.CacheSpec(), func(n []uint64) {
		s := l1.Stats()
		n[energy.CacheHit] = s.ReadHits + s.WriteHits
		n[energy.CacheFill] = s.Fills
		n[energy.CacheWriteback] = s.Writebacks
		n[energy.CacheFlushLine] = s.FlushedLines
	})
	net := noc.New(noc.DefaultConfig())
	nM := energy.NewMeter("noc", energy.NoCSpec(), func(n []uint64) {
		n[energy.NoCHop], _ = net.Stats()
	})

	ops := 4096
	if o.Quick {
		ops = 1024
	}
	rng := sim.NewRNG(sim.SubSeed(o.Seed, "energy/micro"))
	now := sim.Time(0)
	for i := 0; i < ops; i++ {
		// A hot 32 KB region plus a cold tail keeps all cache classes and
		// PMEM tiers in play.
		addr := rng.Uint64n(512) * trace.CacheLineSize
		if rng.Intn(100) < 25 {
			addr = (1 << 20) + rng.Uint64n(1<<16)*trace.CacheLineSize
		}
		op := trace.OpRead
		if rng.Intn(100) < 40 {
			op = trace.OpWrite
		}
		done, hit := l1.Access(now, trace.Access{Op: op, Addr: addr, Size: trace.CacheLineSize})
		if !hit {
			// A miss crosses the interconnect to the DIMM's channel.
			done = net.Transfer(done, i%net.Config().Masters, net.SlaveFor(addr/trace.CacheLineSize))
		}
		now = done
	}
	now = l1.Flush(now)
	now = pm.Flush(now)
	pmM.Sync(now)
	cM.Sync(now)
	nM.Sync(now)

	t := report.New("Energy: micro (meters outside the platform harness)",
		"component", "op events", "op uJ", "state uJ", "total uJ")
	for _, m := range []*energy.Meter{pmM, cM, nM} {
		var events uint64
		for i := range m.Spec().Ops {
			events += m.OpCount(energy.Op(i))
		}
		t.Add(m.Name(), fmt.Sprintf("%d", events),
			report.F(m.OpJ()*1e6, 3), report.F(m.StateJ()*1e6, 3),
			report.F(m.TotalJ()*1e6, 3))
	}
	t.Note("fixed seeded pattern: %d accesses, hot-set reads/writes + cold tail, full flush at the end", ops)
	return t
}
