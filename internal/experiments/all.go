package experiments

import "repro/internal/report"

// Named pairs an experiment id with its runner.
type Named struct {
	ID   string
	Desc string
	Run  func(Options) []*report.Table
}

// All enumerates every experiment in paper order.
func All() []Named {
	one := func(f func(Options) *report.Table) func(Options) []*report.Table {
		return func(o Options) []*report.Table { return []*report.Table{f(o)} }
	}
	return []Named{
		{"tableI", "platform configuration", one(func(o Options) *report.Table {
			_, t := TableI()
			return t
		})},
		{"tableII", "benchmark characterization", one(func(o Options) *report.Table {
			_, t := TableII(o)
			return t
		})},
		{"fig2", "PMEM DIMM vs bare PRAM vs DRAM latency variation", one(func(o Options) *report.Table {
			_, t := Fig02LatencyVariation(o)
			return t
		})},
		{"fig4", "persistence-control modes (DRAM/mem/app/object/trans)", one(func(o Options) *report.Table {
			_, t := Fig04PersistControl(o)
			return t
		})},
		{"fig8a", "PSU hold-up times", one(func(o Options) *report.Table {
			_, t := Fig08HoldUp(o)
			return t
		})},
		{"fig8b", "SnG latency decomposition", one(func(o Options) *report.Table {
			_, t := Fig08SnG(o)
			return t
		})},
		{"fig14", "CPU stall share vs frequency", one(func(o Options) *report.Table {
			_, t := Fig14StallScaling(o)
			return t
		})},
		{"fig15", "in-memory execution latency", one(func(o Options) *report.Table {
			_, t := Fig15ExecLatency(o)
			return t
		})},
		{"fig16", "LightPC-B read latency vs LightPC", one(func(o Options) *report.Table {
			_, t := Fig16ReadLatency(o)
			return t
		})},
		{"fig17", "STREAM bandwidth", one(func(o Options) *report.Table {
			_, t := Fig17Stream(o)
			return t
		})},
		{"fig18", "power and energy", one(func(o Options) *report.Table {
			_, t := Fig18PowerEnergy(o)
			return t
		})},
		{"fig19", "persistence mechanisms overhead", one(func(o Options) *report.Table {
			_, t := Fig19Persistence(o)
			return t
		})},
		{"fig20", "power-down flush vs hold-up", one(func(o Options) *report.Table {
			_, t := Fig20Flush(o)
			return t
		})},
		{"fig21", "power-down/up timeline", one(func(o Options) *report.Table {
			_, t := Fig21Timeline(o)
			return t
		})},
		{"fig21a", "dynamic IPC series across the power cycle", one(func(o Options) *report.Table {
			_, t := Fig21Series(o)
			return t
		})},
		{"fig22", "SnG worst-case scalability", one(func(o Options) *report.Table {
			_, t := Fig22Scalability(o)
			return t
		})},
		{"ablations", "design-choice ablations", func(o Options) []*report.Table {
			_, ts := Ablations(o)
			return ts
		}},
		{"related", "Section VII comparison: SnG vs eADR vs WSP", one(func(o Options) *report.Table {
			_, t := RelatedWork(o)
			return t
		})},
		{"hybridecc", "Section VIII hybrid symbol ECC sweep", one(func(o Options) *report.Table {
			_, t := HybridECC(o)
			return t
		})},
		{"period", "S-CheckPC period sensitivity", one(func(o Options) *report.Table {
			_, t := SCheckPCPeriod(o)
			return t
		})},
		{"seedrotation", "wear-leveler seed rotation vs adversary", one(func(o Options) *report.Table {
			_, t := SeedRotation(o)
			return t
		})},
		{"noc", "interconnect sensitivity (bus vs crossbar)", one(func(o Options) *report.Table {
			_, t := Interconnect(o)
			return t
		})},
		{"endurance", "PRAM lifetime projection (Section VIII)", one(func(o Options) *report.Table {
			_, t := Endurance(o)
			return t
		})},
		{"intro", "per-op durability cost (Section I motivation)", one(func(o Options) *report.Table {
			_, t := IntroMotivation(o)
			return t
		})},
		{"energy", "per-device joule metering across a power cycle", func(o Options) []*report.Table {
			_, ts := EnergyAccounting(o)
			return ts
		}},
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
