package cpu

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkRunHot measures the per-reference path of a LegacyPC run: one
// op is Run over every Table II spec's Fanout at 100k references on a
// fresh 6-DIMM DRAM controller, the generators and controllers built
// outside the timer. It reports host ns per simulated reference.
func BenchmarkRunHot(b *testing.B) {
	const sampleOps = 100_000
	cfg := DefaultConfig()
	specs := workload.Table2()
	type job struct {
		gens []workload.Generator
		mc   *memctrl.DRAMController
	}
	jobs := make([]job, len(specs))
	var refs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, s := range specs {
			jobs[j] = job{
				gens: Fanout(s, cfg.Cores, sampleOps, 1),
				mc:   memctrl.NewDRAMController(6, dram.DefaultConfig(), sim.FromNanoseconds(8)),
			}
		}
		b.StartTimer()
		for _, j := range jobs {
			refs += Run(cfg, 0, j.gens, j.mc).MemOps
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(refs), "ns/ref")
}
