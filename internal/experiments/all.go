package experiments

import "repro/internal/report"

// Named pairs an experiment id with its runner.
type Named struct {
	ID   string
	Desc string
	Run  func(Options) []*report.Table
}

// table adapts a harness that renders one table.
func table[R any](run func(Options) (R, *report.Table)) func(Options) []*report.Table {
	return func(o Options) []*report.Table {
		_, t := run(o)
		return []*report.Table{t}
	}
}

// tables adapts a harness that renders several tables.
func tables[R any](run func(Options) (R, []*report.Table)) func(Options) []*report.Table {
	return func(o Options) []*report.Table {
		_, ts := run(o)
		return ts
	}
}

// All enumerates every experiment in paper order.
func All() []Named {
	return []Named{
		{"tableI", "platform configuration", table(func(Options) (TableIResult, *report.Table) { return TableI() })},
		{"tableII", "benchmark characterization", table(TableII)},
		{"fig2", "PMEM DIMM vs bare PRAM vs DRAM latency variation", table(Fig02LatencyVariation)},
		{"fig4", "persistence-control modes (DRAM/mem/app/object/trans)", table(Fig04PersistControl)},
		{"fig8a", "PSU hold-up times", table(Fig08HoldUp)},
		{"fig8b", "SnG latency decomposition", table(Fig08SnG)},
		{"fig14", "CPU stall share vs frequency", table(Fig14StallScaling)},
		{"fig15", "in-memory execution latency", table(Fig15ExecLatency)},
		{"fig16", "LightPC-B read latency vs LightPC", table(Fig16ReadLatency)},
		{"fig17", "STREAM bandwidth", table(Fig17Stream)},
		{"fig18", "power and energy", table(Fig18PowerEnergy)},
		{"fig19", "persistence mechanisms overhead", table(Fig19Persistence)},
		{"fig20", "power-down flush vs hold-up", table(Fig20Flush)},
		{"fig21", "power-down/up timeline", table(Fig21Timeline)},
		{"fig21a", "dynamic IPC series across the power cycle", table(Fig21Series)},
		{"fig22", "SnG worst-case scalability", table(Fig22Scalability)},
		{"ablations", "design-choice ablations", tables(Ablations)},
		{"related", "Section VII comparison: SnG vs eADR vs WSP", table(RelatedWork)},
		{"hybridecc", "Section VIII hybrid symbol ECC sweep", table(HybridECC)},
		{"period", "S-CheckPC period sensitivity", table(SCheckPCPeriod)},
		{"seedrotation", "wear-leveler seed rotation vs adversary", table(SeedRotation)},
		{"noc", "interconnect sensitivity (bus vs crossbar)", table(Interconnect)},
		{"endurance", "PRAM lifetime projection (Section VIII)", table(Endurance)},
		{"intro", "per-op durability cost (Section I motivation)", table(IntroMotivation)},
		{"energy", "per-device joule metering across a power cycle", tables(EnergyAccounting)},
	}
}

// ByID finds an experiment runner.
func ByID(id string) (Named, bool) {
	for _, n := range All() {
		if n.ID == id {
			return n, true
		}
	}
	return Named{}, false
}

// Output pairs one experiment with its rendered tables.
type Output struct {
	Named
	Tables []*report.Table
}

// RunAll executes every experiment in paper order and returns the outputs
// in that order. The experiments run one after another — each grid-shaped
// harness parallelizes internally across o.Jobs workers — so the
// concatenated output is identical at any parallelism.
func RunAll(o Options) []Output {
	names := All()
	outs := make([]Output, len(names))
	for i, n := range names {
		outs[i] = Output{Named: n, Tables: n.Run(o)}
	}
	return outs
}

// Render concatenates every output's tables — the byte stream the golden
// and serial/parallel-equivalence tests lock down.
func Render(outs []Output) string {
	var b []byte
	for _, out := range outs {
		for _, t := range out.Tables {
			b = append(b, t.String()...)
			b = append(b, '\n')
		}
	}
	return string(b)
}
