package crashpoint

import (
	"testing"

	"repro/internal/sim"
)

// benchScenario is a representative sweep cell: the production default
// kernel (4 cores, 24+16 procs, 64 devices) under an application phase
// long enough that staged residue spans many journal sectors.
func benchScenario() Scenario {
	return Scenario{Seed: 1, Workload: "Redis", AppOps: 2000}
}

// BenchmarkCrashSweepCell measures one full sweep cell — reference run,
// offset grid, one cut per offset — through both implementations.
// "rebuild" is the historical cell verbatim: a reference Build plus Stop
// for the grid, then a fresh Build for every cut. "fork" is the shipping
// cell: one Build, a forked Stop for the grid, then a fork per cut. The
// ratio is the sweep speedup recorded in BENCH_SEED.json.
func BenchmarkCrashSweepCell(b *testing.B) {
	sc := benchScenario()

	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ref, err := Build(sc)
			if err != nil {
				b.Fatal(err)
			}
			stopRep := ref.Platform.SnG().Stop(0, sim.Time(1<<62))
			offsets := gridFromStop(sc, "bench-cell", 4, ref.Window, stopRep)
			for _, off := range offsets {
				s, err := Build(sc)
				if err != nil {
					b.Fatal(err)
				}
				if out := s.CutAt(off); len(out.Violations) != 0 {
					b.Fatalf("violations at %v: %v", off, out.Violations)
				}
			}
		}
	})
	b.Run("fork", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			base, err := Build(sc)
			if err != nil {
				b.Fatal(err)
			}
			for _, off := range CellOffsets(base, "bench-cell", 4) {
				if out := base.Fork().CutAt(off); len(out.Violations) != 0 {
					b.Fatalf("violations at %v: %v", off, out.Violations)
				}
			}
		}
	})
}

// BenchmarkForkedBankSteadyState pins the cut path's bank traffic at 0
// allocs/op once a fork owns the pages it touches. It forks a built cell,
// lets the fork save every process context once (copying or creating
// those pages), and then times what each Stop and Go repeat: saving and
// restoring every context in place, and the ordered application-region
// digest every cut takes.
func BenchmarkForkedBankSteadyState(b *testing.B) {
	base, err := Build(benchScenario())
	if err != nil {
		b.Fatal(err)
	}
	k := base.Fork().Platform.Kernel()
	for _, p := range k.Procs {
		p.SaveContext()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		for _, p := range k.Procs {
			p.SaveContext()
			p.RestoreContext()
		}
		sum += appRegionsChecksum(k.OCPMEM)
	}
	if sum == 0 {
		b.Fatal("empty digest")
	}
}
