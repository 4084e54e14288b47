package experiments

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig14Point is one frequency sample of the stall analysis.
type Fig14Point struct {
	Workload string
	FreqHz   float64
	Stall    float64 // memory-stall share of core time
}

// Fig14StallScaling reproduces Figure 14: two memory-intensive workloads on
// a DRAM system with the core clock swept from 0.8 to 1.8 GHz — the
// memory-stall share grows with frequency, showing that the 400 MHz FPGA
// does not wash out memory effects. Each workload's streams are generated
// once and replayed at every frequency.
func Fig14StallScaling(o Options) ([]Fig14Point, *report.Table) {
	freqs := []float64{0.8e9, 1.0e9, 1.2e9, 1.4e9, 1.6e9, 1.8e9}
	if o.Quick {
		freqs = []float64{0.8e9, 1.8e9}
	}
	var points []Fig14Point
	for _, spec := range workload.MemoryIntensive() {
		cfg := cpu.DefaultConfig()
		withRecording(cpu.Fanout(spec, cfg.Cores, o.SampleOps, o.Seed), func(rec *workload.Recording) {
			for _, hz := range freqs {
				cfg.FreqHz = hz
				backend := memctrl.NewDRAMController(6, dram.DefaultConfig(),
					sim.FromNanoseconds(8))
				res := cpu.Run(cfg, 0, rec.Generators(), backend)
				points = append(points, Fig14Point{
					Workload: spec.Name,
					FreqHz:   hz,
					Stall:    res.StallFraction(cfg.Cores),
				})
			}
		})
	}
	t := report.New("Fig 14: CPU memory-stall share vs core frequency",
		"workload", "freq", "stall share")
	for _, p := range points {
		t.Add(p.Workload, fmt.Sprintf("%.1f GHz", p.FreqHz/1e9), report.Pct(p.Stall))
	}
	t.Note("paper: user-level memory-stall trend is similar across 0.8-1.8 GHz on a Xeon; stalls grow with frequency")
	return points, t
}
