package obs

import (
	"testing"

	"repro/internal/sim"
)

// The disabled (nil) instruments must cost nothing on hot paths: no
// allocations and only a nil check per call. These benchmarks are recorded
// in BENCH_SEED.json and gated by lightpc-perfdiff.

func BenchmarkTracerDisabledSpan(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := tr.Begin(sim.Time(i), 0, "bench", "span")
		tr.End(sim.Time(i+1), id)
		tr.Instant(sim.Time(i), 0, "bench", "mark")
	}
}

func BenchmarkTracerEnabledSpan(b *testing.B) {
	tr := NewTracer()
	lane := tr.Lane("core0")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Span(sim.Time(i), sim.Time(i+10), lane, "bench", "span")
		if tr.Len() >= 1<<16 {
			tr.Reset()
		}
	}
}
