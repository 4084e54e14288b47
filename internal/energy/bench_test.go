package energy_test

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/sim"
)

// Both benches are pinned at 0 allocs/op by BENCH_SEED.json (perfdiff
// -strict-zero-alloc): a disabled meter must cost an instrumented hot path
// nothing, and an enabled state transition must not allocate.

func BenchmarkDisabledMeterSync(b *testing.B) {
	b.ReportAllocs()
	var m *energy.Meter
	for i := 0; i < b.N; i++ {
		m.Sync(sim.Time(i))
	}
}

func BenchmarkEnabledMeterSetState(b *testing.B) {
	b.ReportAllocs()
	m := energy.NewMeter("dev", testSpec(), nil)
	b.ResetTimer() // meter construction allocates; the state path must not
	for i := 0; i < b.N; i++ {
		m.SetState(sim.Time(i), energy.State(i&1))
	}
}
