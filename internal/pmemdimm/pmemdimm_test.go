package pmemdimm

import (
	"testing"
	"testing/quick"

	"repro/internal/pram"
	"repro/internal/sim"
)

func TestColdReadGoesToMedia(t *testing.T) {
	d := New(DefaultConfig())
	done := d.Read(0, 0)
	if d.Stats().MediaReads != 1 {
		t.Fatal("cold read should miss to media")
	}
	// Cold read pays all lookups + firmware + media: far above bare PRAM.
	if done.Sub(0) < 3*pram.DefaultConfig().ReadLatency {
		t.Fatalf("cold DIMM read too fast: %v", done.Sub(0))
	}
}

func TestHotReadHitsSRAM(t *testing.T) {
	d := New(DefaultConfig())
	now := d.Read(0, 0)
	done := d.Read(now, 0)
	if d.Stats().SRAMHits != 1 {
		t.Fatal("second read should hit SRAM")
	}
	if done.Sub(now) >= d.Read(done, 1<<30).Sub(done) {
		t.Fatal("SRAM hit should be faster than a cold miss")
	}
}

func TestDRAMTierHit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SRAMBlocks = 2
	d := New(cfg)
	now := d.Read(0, 0)
	// Push address 0's 256 B block out of SRAM but keep its 4 KB block in
	// DRAM.
	now = d.Read(now, 256)
	now = d.Read(now, 512)
	d.Read(now, 0)
	if d.Stats().DRAMHits == 0 {
		t.Fatal("expected a DRAM-tier hit")
	}
}

func TestWriteCombining(t *testing.T) {
	d := New(DefaultConfig())
	now := d.Write(0, 0)
	for i := uint64(1); i < 4; i++ {
		now = d.Write(now, i*64) // same 256 B block
	}
	if d.Stats().CombinedWrites != 3 {
		t.Fatalf("CombinedWrites = %d, want 3", d.Stats().CombinedWrites)
	}
}

func TestDIMMWritesFasterThanBarePRAM(t *testing.T) {
	// Figure 2b: thanks to internal buffering, DIMM-level writes beat
	// bare-metal PRAM writes by 2.3–6.1×.
	d := New(DefaultConfig())
	now := sim.Time(0)
	var total sim.Duration
	const n = 1000
	for i := 0; i < n; i++ {
		done := d.Write(now, uint64(i%32)*64) // high locality
		total += done.Sub(now)
		now = done
	}
	avg := total / n
	bare := pram.DefaultConfig().WriteLatency
	if avg*2 >= bare {
		t.Fatalf("avg DIMM write %v not clearly under bare PRAM write %v", avg, bare)
	}
}

func TestDIMMReadsSlowerAndNoisierThanBarePRAM(t *testing.T) {
	// Figure 2b: DIMM-level reads take ~2.9× longer than bare PRAM and
	// vary; bare PRAM reads are deterministic.
	// CoV needs every sample, so a probe-local Histogram records the
	// reads.
	d := New(DefaultConfig())
	rng := sim.NewRNG(5)
	now := sim.Time(0)
	h := sim.NewHistogram()
	for i := 0; i < 4000; i++ {
		// Random accesses over a span larger than the caches with a
		// locality mix.
		addr := uint64(rng.Intn(1 << 24))
		done := d.Read(now, addr)
		h.Add(done.Sub(now))
		now = done
	}
	bare := pram.DefaultConfig().ReadLatency
	ratio := float64(h.Mean()) / float64(bare)
	if ratio < 1.8 {
		t.Fatalf("DIMM/bare read ratio = %.2f, want clearly > 1", ratio)
	}
	if h.CoefficientOfVariation() < 0.05 {
		t.Fatalf("DIMM reads suspiciously deterministic: CoV=%v", h.CoefficientOfVariation())
	}
}

func TestDirtyEvictionWritesMedia(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SRAMBlocks = 2
	cfg.DRAMBlocks = 2
	d := New(cfg)
	now := sim.Time(0)
	for i := uint64(0); i < 8; i++ {
		now = d.Write(now, i*BufferBlock)
	}
	if d.Stats().MediaWrites == 0 {
		t.Fatal("dirty evictions never reached media")
	}
}

func TestFlushCleansDirtyState(t *testing.T) {
	d := New(DefaultConfig())
	now := sim.Time(0)
	for i := uint64(0); i < 16; i++ {
		now = d.Write(now, i*BufferBlock)
	}
	before := d.Stats().MediaWrites
	end := d.Flush(now)
	if !end.After(now) {
		t.Fatal("flush with dirty blocks must take time")
	}
	if d.Stats().MediaWrites <= before {
		t.Fatal("flush wrote nothing to media")
	}
	end2 := d.Flush(end)
	if end2 != end {
		t.Fatal("second flush should be free")
	}
}

// access is one tier access the way DIMM.Read and DIMM.Write drive it: a
// hit refreshes the block (and dirties it on a write), a miss adds it to
// the bucket find returned.
func access(l *lru, key uint64, dirty bool) (evictedDirty, evicted bool) {
	b, i := l.find(key)
	if i < 0 {
		return l.add(b, key, dirty)
	}
	l.refresh(i)
	if dirty {
		l.markDirty(i)
	}
	return false, false
}

// hit reports whether key is cached, refreshing it the way a read hit does.
func hit(l *lru, key uint64) (int32, bool) {
	_, i := l.find(key)
	if i >= 0 {
		l.refresh(i)
	}
	return i, i >= 0
}

func TestLRUEviction(t *testing.T) {
	l := newLRU(2)
	if _, ev := access(l, 1, false); ev {
		t.Fatal("no eviction expected")
	}
	access(l, 2, false)
	if _, ev := access(l, 3, false); !ev {
		t.Fatal("expected an eviction at capacity")
	}
	if _, ok := hit(l, 1); ok {
		t.Fatal("evicted key still present")
	}
	if _, ok := hit(l, 2); !ok {
		t.Fatal("surviving key lost")
	}
	if l.len() != 2 {
		t.Fatalf("len = %d", l.len())
	}
}

func TestLRUTouchRefreshesRecency(t *testing.T) {
	l := newLRU(2)
	access(l, 1, false)
	access(l, 2, false)
	hit(l, 1) // 2 becomes LRU
	access(l, 3, false)
	if _, ok := hit(l, 2); ok {
		t.Fatal("LRU order wrong: 2 should have been evicted")
	}
	if _, ok := hit(l, 1); !ok {
		t.Fatal("LRU order wrong: 1 should have survived")
	}
}

func TestLRUDuplicateInsertKeepsDirty(t *testing.T) {
	l := newLRU(2)
	access(l, 1, true)
	access(l, 1, false)
	i, ok := hit(l, 1)
	if !ok || !l.isDirty(i) {
		t.Fatal("dirty bit lost on a clean access to a dirty block")
	}
	if l.len() != 1 {
		t.Fatalf("a second access grew the LRU: %d", l.len())
	}
}

func TestLRUDirtyCountAndFlush(t *testing.T) {
	l := newLRU(2)
	access(l, 1, true)
	access(l, 2, false)
	if l.dirty != 1 {
		t.Fatalf("dirty count = %d, want 1", l.dirty)
	}
	// Evicting the dirty block must decrement the count.
	access(l, 3, true) // evicts 1 (dirty), inserts 3 dirty
	if l.dirty != 1 {
		t.Fatalf("dirty count after dirty eviction = %d, want 1", l.dirty)
	}
	if n := l.flushAll(); n != 1 {
		t.Fatalf("flushAll = %d, want 1", n)
	}
	if l.dirty != 0 {
		t.Fatalf("dirty count after flush = %d, want 0", l.dirty)
	}
	if i, ok := hit(l, 3); !ok || l.isDirty(i) {
		t.Fatal("flush must clear dirty bits without evicting")
	}
	// Re-dirtying after a flush works in the new epoch.
	i, _ := hit(l, 3)
	l.markDirty(i)
	if l.dirty != 1 || !l.isDirty(i) {
		t.Fatal("markDirty after flush failed")
	}
}

// Property: LRU never exceeds capacity and completion times are monotone.
func TestDIMMInvariantsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		cfg := DefaultConfig()
		cfg.SRAMBlocks = 4
		cfg.DRAMBlocks = 4
		d := New(cfg)
		now := sim.Time(0)
		for _, o := range ops {
			addr := uint64(o) * 64
			var done sim.Time
			if o%2 == 0 {
				done = d.Read(now, addr)
			} else {
				done = d.Write(now, addr)
			}
			if done.Before(now) || d.sram.len() > 4 || d.dram.len() > 4 {
				return false
			}
			now = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDIMMSteadyStateAllocFree pins the access hot path: once the tier
// caches are warm, Read/Write must not allocate. The obs layer samples
// these counters via CounterFunc, so the instrumented DIMM must stay as
// allocation-free as the bare one.
func TestDIMMSteadyStateAllocFree(t *testing.T) {
	d := New(Config{Seed: 1})
	rng := sim.NewRNG(2)
	now := sim.Time(0)
	// Warm both tiers to capacity so inserts only recycle slots.
	for i := 0; i < 3*4096; i++ {
		now = d.Read(now, rng.Uint64())
		now = d.Write(now, rng.Uint64())
	}

	allocs := testing.AllocsPerRun(1000, func() {
		now = d.Read(now, rng.Uint64())
		now = d.Write(now, rng.Uint64())
		now = d.Read(now, rng.Uint64())
	})
	if allocs != 0 {
		t.Fatalf("steady-state DIMM access allocates %.1f objects/op, want 0", allocs)
	}
}
