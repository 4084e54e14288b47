package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/trace"
)

// flatBackend is a fixed-latency memory used for cache unit tests.
type flatBackend struct {
	readLat, writeLat sim.Duration
	reads, writes     []uint64
}

func (b *flatBackend) Read(now sim.Time, addr uint64) sim.Time {
	b.reads = append(b.reads, addr)
	return now.Add(b.readLat)
}

func (b *flatBackend) Write(now sim.Time, addr uint64) sim.Time {
	b.writes = append(b.writes, addr)
	return now.Add(b.writeLat)
}

func newTestCache() (*Cache, *flatBackend) {
	b := &flatBackend{readLat: 100 * sim.Nanosecond, writeLat: 50 * sim.Nanosecond}
	cfg := Config{SizeBytes: 1024, Ways: 2, LineSize: 64, HitLatency: 5 * sim.Nanosecond}
	return New(cfg, b), b
}

func TestMissThenHit(t *testing.T) {
	c, b := newTestCache()
	r := trace.Access{Op: trace.OpRead, Addr: 0x100, Size: 8}
	done, hit := c.Access(0, r)
	if hit {
		t.Fatal("cold access hit")
	}
	if done.Sub(0) != 105*sim.Nanosecond {
		t.Fatalf("miss latency = %v", done.Sub(0))
	}
	if len(b.reads) != 1 || b.reads[0] != 0x100 {
		t.Fatalf("backend reads = %v", b.reads)
	}
	done2, hit2 := c.Access(done, r)
	if !hit2 {
		t.Fatal("second access missed")
	}
	if done2.Sub(done) != 5*sim.Nanosecond {
		t.Fatalf("hit latency = %v", done2.Sub(done))
	}
}

func TestWriteAllocateAndWriteback(t *testing.T) {
	c, b := newTestCache()
	w := trace.Access{Op: trace.OpWrite, Addr: 0, Size: 8}
	c.Access(0, w)
	if c.DirtyLines() != 1 {
		t.Fatalf("DirtyLines = %d", c.DirtyLines())
	}
	// Evict line 0 by filling its set: set = line % 8 (1024/64/2 = 8
	// sets). Lines 8 and 16 map to set 0 too.
	c.Access(0, trace.Access{Op: trace.OpRead, Addr: 8 * 64})
	c.Access(0, trace.Access{Op: trace.OpRead, Addr: 16 * 64})
	if len(b.writes) != 1 || b.writes[0] != 0 {
		t.Fatalf("expected writeback of line 0, got %v", b.writes)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatal("writeback not counted")
	}
}

func TestLRUReplacement(t *testing.T) {
	c, b := newTestCache()
	a0 := trace.Access{Op: trace.OpRead, Addr: 0}
	a8 := trace.Access{Op: trace.OpRead, Addr: 8 * 64}
	a16 := trace.Access{Op: trace.OpRead, Addr: 16 * 64}
	c.Access(0, a0)
	c.Access(0, a8)
	c.Access(0, a0)  // refresh 0 -> victim is 8
	c.Access(0, a16) // evict 8
	_, hit := c.Access(0, a0)
	if !hit {
		t.Fatal("LRU evicted the recently used line")
	}
	_ = b
}

func TestFlushWritesAllDirty(t *testing.T) {
	c, b := newTestCache()
	for i := uint64(0); i < 5; i++ {
		c.Access(0, trace.Access{Op: trace.OpWrite, Addr: i * 64})
	}
	preWrites := len(b.writes)
	end := c.Flush(0)
	if got := len(b.writes) - preWrites; got != 5 {
		t.Fatalf("flush wrote %d lines, want 5", got)
	}
	if !end.After(0) {
		t.Fatal("flush must take time")
	}
	if c.DirtyLines() != 0 {
		t.Fatal("dirty lines survive flush")
	}
	s := c.Stats()
	if s.Flushes != 1 || s.FlushedLines != 5 {
		t.Fatalf("flush stats = %+v", s)
	}
	// Everything was invalidated: next access misses.
	_, hit := c.Access(end, trace.Access{Op: trace.OpRead, Addr: 0})
	if hit {
		t.Fatal("flush did not invalidate")
	}
}

func TestHitRateStats(t *testing.T) {
	c, _ := newTestCache()
	c.Access(0, trace.Access{Op: trace.OpRead, Addr: 0})
	c.Access(0, trace.Access{Op: trace.OpRead, Addr: 0})
	c.Access(0, trace.Access{Op: trace.OpWrite, Addr: 0})
	s := c.Stats()
	if s.ReadMisses != 1 || s.ReadHits != 1 || s.WriteHits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	want := 2.0 / 3.0
	if got := s.HitRate(); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("HitRate = %v", got)
	}
	var empty Stats
	if empty.HitRate() != 0 {
		t.Fatal("empty HitRate should be 0")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{SizeBytes: 100, Ways: 3, LineSize: 64}, &flatBackend{})
}

func TestDefaultConfigGeometry(t *testing.T) {
	c := New(DefaultConfig(), &flatBackend{})
	if c.Lines() != 256 {
		t.Fatalf("default 16KB/64B = %d lines, want 256", c.Lines())
	}
}

// Property: the number of fills equals the number of misses, and writeback
// count never exceeds fills (a line must be filled before it can be dirty-
// evicted). Also, flushing after any access sequence leaves zero dirty.
func TestCacheAccountingProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c, _ := newTestCache()
		now := sim.Time(0)
		for _, o := range ops {
			op := trace.OpRead
			if o%2 == 1 {
				op = trace.OpWrite
			}
			done, _ := c.Access(now, trace.Access{Op: op, Addr: uint64(o%64) * 64})
			now = done
		}
		s := c.Stats()
		if s.Fills != s.ReadMisses+s.WriteMisses {
			return false
		}
		if s.Writebacks > s.Fills {
			return false
		}
		c.Flush(now)
		return c.DirtyLines() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
