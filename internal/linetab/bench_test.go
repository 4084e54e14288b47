package linetab

import (
	"testing"

	"repro/internal/sim"
)

// Microbenches for the paged tables; the Get/Set/steady-state paths must
// report 0 allocs/op — BENCH_SEED.json pins the allocs_per_op and the
// perfdiff CI gate runs strict on 0-alloc benches.

const benchLines = 1 << 14

func BenchmarkCountersInc(b *testing.B) {
	c := NewCounters()
	for i := uint64(0); i < benchLines; i++ {
		c.Inc(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc(uint64(i) & (benchLines - 1))
	}
}

func BenchmarkCountersGet(b *testing.B) {
	c := NewCounters()
	for i := uint64(0); i < benchLines; i++ {
		c.Inc(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += c.Get(uint64(i) & (benchLines - 1))
	}
	_ = sink
}

func BenchmarkTableSet(b *testing.B) {
	t := NewTable()
	for i := uint64(0); i < benchLines; i++ {
		t.Set(i, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Set(uint64(i)&(benchLines-1), uint64(i))
	}
}

func BenchmarkTableGet(b *testing.B) {
	t := NewTable()
	for i := uint64(0); i < benchLines; i++ {
		t.Set(i, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		v, _ := t.Get(uint64(i) & (benchLines - 1))
		sink += v
	}
	_ = sink
}

func BenchmarkBitsGet(b *testing.B) {
	bits := NewBits()
	for i := uint64(0); i < benchLines; i += 2 {
		bits.Set(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		if bits.Get(uint64(i) & (benchLines - 1)) {
			sink++
		}
	}
	_ = sink
}

func BenchmarkSlabPut(b *testing.B) {
	s := NewSlab(64)
	rec := make([]byte, 64)
	for i := uint64(0); i < benchLines; i++ {
		s.Put(i, rec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(uint64(i)&(benchLines-1), rec)
	}
}

func BenchmarkFlightSteadyState(b *testing.B) {
	// Insert a cooling window, check Busy, with time advancing so entries
	// keep expiring — the arena must never grow.
	var f Flight
	b.ReportAllocs()
	b.ResetTimer()
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		f.Set(now, uint64(i)&1023, now+150)
		f.Busy(now, uint64(i+1)&1023)
		now += 100
	}
}

func BenchmarkFlightNextSteadyState(b *testing.B) {
	// The pram write path: BenchmarkFlightSteadyState's schedule with each
	// window recorded by Next, which serializes behind a still-cooling one.
	var f Flight
	b.ReportAllocs()
	b.ResetTimer()
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		f.Next(now, now, uint64(i)&1023, 150)
		f.Busy(now, uint64(i+1)&1023)
		now += 100
	}
}

func BenchmarkFlightQuiet(b *testing.B) {
	var f Flight
	f.Set(0, 1, 10)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		if f.Quiet(sim.Time(i) + 11) {
			sink++
		}
	}
	_ = sink
}
