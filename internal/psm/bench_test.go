package psm

import (
	"testing"

	"repro/internal/sim"
)

// benchLines is the line span of the steady-state benches: 4 MB, wider
// than the 48 row-buffer windows, so reads and writes reach the media.
const benchLines = 1 << 16

// warmPSM returns a default PSM whose device tables have been touched over
// the whole span, plus a step that issues one access of a 3:1 read/write
// mix at a random line, advancing the clock to its completion.
func warmPSM() (p *PSM, step func(i int)) {
	p = New(DefaultConfig())
	rng := sim.NewRNG(1)
	now := sim.Time(0)
	for line := uint64(0); line < benchLines; line++ {
		now = p.Write(now, line)
		now = p.Read(now, line)
	}
	step = func(i int) {
		line := rng.Uint64n(benchLines)
		if i%4 == 0 {
			now = p.Write(now, line)
		} else {
			now = p.Read(now, line)
		}
	}
	for i := 0; i < benchLines; i++ {
		step(i)
	}
	return p, step
}

// BenchmarkPSMReadWrite runs a warmed PSM under a random 3:1 read/write
// mix with both latency histograms live. BENCH_SEED.json pins it at 0
// allocs/op.
func BenchmarkPSMReadWrite(b *testing.B) {
	_, step := warmPSM()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

// TestPSMSteadyStateAllocFree holds the benchmark's loop at 0 allocs/op
// in the plain test run, and checks both histograms saw every access.
func TestPSMSteadyStateAllocFree(t *testing.T) {
	p, step := warmPSM()
	i := 0
	allocs := testing.AllocsPerRun(4000, func() {
		step(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state PSM access allocates %.2f objects/op, want 0", allocs)
	}
	s := p.Stats()
	if p.ReadLatency().Count() != int(s.Reads) || p.WriteAckLatency().Count() != int(s.Writes) {
		t.Fatalf("histograms hold %d reads and %d writes, stats %d and %d",
			p.ReadLatency().Count(), p.WriteAckLatency().Count(), s.Reads, s.Writes)
	}
}
