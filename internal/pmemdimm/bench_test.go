package pmemdimm

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkLRUSteadyState drives a warm DRAM-tier-sized LRU with a
// find-then-refresh-or-add stream over twice its capacity, so about half
// the lookups miss and evict. BENCH_SEED.json pins it at 0 allocs/op.
func BenchmarkLRUSteadyState(b *testing.B) {
	const capacity = 4096
	l := newLRU(capacity)
	rng := sim.NewRNG(1)
	for i := 0; i < 2*capacity; i++ {
		access(l, rng.Uint64n(2*capacity), i%2 == 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := rng.Uint64n(2 * capacity)
		if bkt, n := l.find(key); n >= 0 {
			l.refresh(n)
		} else {
			l.add(bkt, key, i%2 == 0)
		}
	}
}

// BenchmarkDIMMReadWrite drives a warm DIMM with a 3:1 read/write mix of
// random 64 B accesses over a span larger than both tiers, so lookups hit,
// miss and evict. BENCH_SEED.json pins it at 0 allocs/op.
func BenchmarkDIMMReadWrite(b *testing.B) {
	d := New(DefaultConfig())
	rng := sim.NewRNG(1)
	now := sim.Time(0)
	step := func(i int) {
		addr := rng.Uint64n(1<<26) &^ 63
		if i%4 == 0 {
			now = d.Write(now, addr)
		} else {
			now = d.Read(now, addr)
		}
	}
	for i := 0; i < 4*DefaultConfig().DRAMBlocks; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

// cloneSink keeps the benchmarked clones live.
var cloneSink *DIMM

// BenchmarkDIMMClone copies a DIMM whose SRAM and DRAM tiers are both
// full — the per-fork cost of a crash-sweep cut's WAL device.
func BenchmarkDIMMClone(b *testing.B) {
	cfg := DefaultConfig()
	d := New(cfg)
	now := sim.Time(0)
	for i := 0; i < cfg.DRAMBlocks; i++ {
		now = d.Write(now, uint64(i)*BufferBlock)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneSink = d.Clone()
	}
}
