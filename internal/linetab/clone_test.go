package linetab

import (
	"testing"

	"repro/internal/snapshot"
)

// TestCloneCompleteness pins every table's field list against its Clone:
// adding a mutable field without teaching the clone about it fails here.
func TestCloneCompleteness(t *testing.T) {
	snapshot.CheckCovered(t, dirIndex{},
		"dense", "spillKeys", "spillSlots", "spillLive", "spillShift")
	snapshot.CheckCovered(t, Counters{},
		"dir", "pages", "touched")
	snapshot.CheckCovered(t, Table{},
		"dir", "pages", "count")
	snapshot.CheckCovered(t, Bits{},
		"dir", "pages", "count")
	snapshot.CheckCovered(t, Slab{},
		"rec", "refs", "arena")
	snapshot.CheckCovered(t, Flight{},
		"slots", "live", "shift", "maxEnd", "scratch")
}

// TestCloneIndependence mutates clones and sources and checks neither sees
// the other.
func TestCloneIndependence(t *testing.T) {
	c := NewCounters()
	c.Add(5, 10)
	c.Add(1<<40, 3) // spill-table path
	cc := c.Clone()
	cc.Add(5, 1)
	if got := c.Get(5); got != 10 {
		t.Fatalf("source counter changed by clone write: %d", got)
	}
	c.Add(1<<40, 1)
	if got := cc.Get(1 << 40); got != 3 {
		t.Fatalf("clone counter changed by source write: %d", got)
	}

	tb := NewTable()
	tb.Set(7, 70)
	tc := tb.cloneValue()
	tc.Set(7, 71)
	if v, _ := tb.Get(7); v != 70 {
		t.Fatalf("source table changed by clone write: %d", v)
	}

	b := NewBits()
	b.Set(9)
	bc := b.Clone()
	bc.Set(10)
	if b.Get(10) {
		t.Fatal("source bits changed by clone write")
	}
	var nilBits *Bits
	if nilBits.Clone() != nil {
		t.Fatal("nil bits must clone to nil")
	}

	s := NewSlab(4)
	s.Put(1, []byte{1, 2, 3, 4})
	scl := s.Clone()
	scl.Put(1, []byte{9, 9, 9, 9})
	if rec, _ := s.Get(1); rec[0] != 1 {
		t.Fatalf("source slab changed by clone write: %v", rec)
	}

	var f Flight
	f.Set(0, 42, 100)
	fc := f.Clone()
	fc.Set(0, 42, 200)
	if end, _ := f.End(42); end != 100 {
		t.Fatalf("source flight changed by clone write: %v", end)
	}
}

// populateCounters fills n slots across several pages.
func populateCounters(n int) *Counters {
	c := NewCounters()
	for i := 0; i < n; i++ {
		c.Add(uint64(i*37), uint64(i)+1)
	}
	return c
}

func BenchmarkCountersClone(b *testing.B) {
	c := populateCounters(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Clone()
	}
}

func BenchmarkSlabClone(b *testing.B) {
	s := NewSlab(64)
	rec := make([]byte, 64)
	for i := 0; i < 2048; i++ {
		rec[0] = byte(i)
		s.Put(uint64(i), rec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Clone()
	}
}

func BenchmarkFlightClone(b *testing.B) {
	var f Flight
	for i := 0; i < 512; i++ {
		f.Set(0, uint64(i), 1000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Clone()
	}
}
