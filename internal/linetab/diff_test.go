package linetab

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/sim"
)

// Differential lockstep tests: each paged structure runs the same randomized
// op stream as the plain Go map it replaced, and every observable (reads,
// counts, iteration contents, drain times) must agree at every step. These
// are the structures backing golden-pinned device models, so the shadows are
// exact re-statements of the old semantics, not approximations.

func TestCountersDiff(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		c := NewCounters()
		shadow := map[uint64]uint64{}
		for op := 0; op < 20000; op++ {
			idx := rng.Uint64n(1 << 14)
			if rng.Bool(0.02) {
				idx = rng.Uint64() // occasional far/spill index
			}
			switch rng.Intn(5) {
			case 0:
				// Adding the two's complement wraps the counter back to
				// zero, which must untouch the slot.
				if got := c.Add(idx, -shadow[idx]); got != 0 {
					t.Fatalf("seed %d op %d: wrapping Add(%d) = %d, want 0", seed, op, idx, got)
				}
				delete(shadow, idx)
			default:
				got := c.Inc(idx)
				shadow[idx]++
				if got != shadow[idx] {
					t.Fatalf("seed %d op %d: Inc(%d) = %d, shadow %d", seed, op, idx, got, shadow[idx])
				}
			}
			if got := c.Get(idx); got != shadow[idx] {
				t.Fatalf("seed %d op %d: Get(%d) = %d, shadow %d", seed, op, idx, got, shadow[idx])
			}
		}
		if c.Touched() != len(shadow) {
			t.Fatalf("seed %d: Touched = %d, shadow %d", seed, c.Touched(), len(shadow))
		}
		// Max must match a deterministic lowest-index-wins scan of the shadow.
		var wantIdx, wantVal uint64
		keys := make([]uint64, 0, len(shadow))
		for k := range shadow {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			if shadow[k] > wantVal {
				wantIdx, wantVal = k, shadow[k]
			}
		}
		if gi, gv := c.Max(); gi != wantIdx || gv != wantVal {
			t.Fatalf("seed %d: Max = (%d, %d), shadow (%d, %d)", seed, gi, gv, wantIdx, wantVal)
		}
		visited := map[uint64]uint64{}
		var prev uint64
		first := true
		c.ForEach(func(idx, val uint64) {
			if !first && idx <= prev {
				t.Fatalf("seed %d: ForEach out of order at %d after %d", seed, idx, prev)
			}
			first, prev = false, idx
			visited[idx] = val
		})
		if len(visited) != len(shadow) {
			t.Fatalf("seed %d: ForEach visited %d, shadow %d", seed, len(visited), len(shadow))
		}
		for k, v := range shadow {
			if visited[k] != v {
				t.Fatalf("seed %d: ForEach[%d] = %d, shadow %d", seed, k, visited[k], v)
			}
		}
	}
}

func TestTableDiff(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		tb := NewTable()
		shadow := map[uint64]uint64{}
		for op := 0; op < 20000; op++ {
			idx := rng.Uint64n(1 << 13)
			if rng.Bool(0.02) {
				idx = rng.Uint64()
			}
			if rng.Bool(0.7) {
				v := rng.Uint64n(100) // stored zeros must stay present
				tb.Set(idx, v)
				shadow[idx] = v
			}
			gv, gok := tb.Get(idx)
			sv, sok := shadow[idx]
			if gv != sv || gok != sok {
				t.Fatalf("seed %d op %d: Get(%d) = (%d, %v), shadow (%d, %v)", seed, op, idx, gv, gok, sv, sok)
			}
			if tb.Len() != len(shadow) {
				t.Fatalf("seed %d op %d: Len = %d, shadow %d", seed, op, tb.Len(), len(shadow))
			}
		}
		n := 0
		tb.ForEach(func(idx, val uint64) {
			n++
			if sv, ok := shadow[idx]; !ok || sv != val {
				t.Fatalf("seed %d: ForEach (%d, %d) not in shadow", seed, idx, val)
			}
		})
		if n != len(shadow) {
			t.Fatalf("seed %d: ForEach visited %d, shadow %d", seed, n, len(shadow))
		}
	}
}

func TestBitsDiff(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		b := NewBits()
		shadow := map[uint64]bool{}
		for op := 0; op < 20000; op++ {
			idx := rng.Uint64n(1 << 18)
			if rng.Bool(0.02) {
				idx = rng.Uint64()
			}
			if rng.Bool(0.5) {
				b.Set(idx)
				shadow[idx] = true
			}
			if b.Get(idx) != shadow[idx] {
				t.Fatalf("seed %d op %d: Get(%d) = %v, shadow %v", seed, op, idx, b.Get(idx), shadow[idx])
			}
			if b.Count() != len(shadow) {
				t.Fatalf("seed %d op %d: Count = %d, shadow %d", seed, op, b.Count(), len(shadow))
			}
		}
	}
}

func TestSlabDiff(t *testing.T) {
	const rec = 16
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		s := NewSlab(rec)
		shadow := map[uint64][]byte{}
		buf := make([]byte, rec)
		for op := 0; op < 10000; op++ {
			idx := rng.Uint64n(1 << 12)
			if rng.Bool(0.6) {
				for i := range buf {
					buf[i] = byte(rng.Uint64())
				}
				s.Put(idx, buf)
				shadow[idx] = append([]byte(nil), buf...)
			}
			gv, gok := s.Get(idx)
			sv, sok := shadow[idx]
			if gok != sok || (gok && !bytes.Equal(gv, sv)) {
				t.Fatalf("seed %d op %d: Get(%d) = (%x, %v), shadow (%x, %v)", seed, op, idx, gv, gok, sv, sok)
			}
			if s.Len() != len(shadow) {
				t.Fatalf("seed %d op %d: Len = %d, shadow %d", seed, op, s.Len(), len(shadow))
			}
		}
		n := 0
		s.ForEach(func(idx uint64, got []byte) {
			n++
			if !bytes.Equal(got, shadow[idx]) {
				t.Fatalf("seed %d: ForEach[%d] = %x, shadow %x", seed, idx, got, shadow[idx])
			}
		})
		if n != len(shadow) {
			t.Fatalf("seed %d: ForEach visited %d, shadow %d", seed, n, len(shadow))
		}
	}
}

// flightShadow is the map-based inFlight bookkeeping the pram device used:
// a row -> completion map pruned of expired entries opportunistically.
type flightShadow struct {
	m map[uint64]sim.Time
}

func (s *flightShadow) set(key uint64, end sim.Time) { s.m[key] = end }
func (s *flightShadow) busy(now sim.Time, key uint64) bool {
	end, ok := s.m[key]
	return ok && end > now
}
func (s *flightShadow) drain(now sim.Time) sim.Time {
	d := now
	for _, end := range s.m {
		if end > d {
			d = end
		}
	}
	return d
}

func TestFlightDiff(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		var f Flight
		shadow := flightShadow{m: map[uint64]sim.Time{}}
		now := sim.Time(0)
		var maxEndSeen sim.Time
		for op := 0; op < 30000; op++ {
			now = now.Add(sim.Duration(rng.Uint64n(200)))
			key := rng.Uint64n(256)
			switch rng.Intn(3) {
			case 0:
				end := now.Add(sim.Duration(rng.Uint64n(500)))
				f.Set(now, key, end)
				shadow.set(key, end)
				if end > maxEndSeen {
					maxEndSeen = end
				}
			case 1:
				if f.Busy(now, key) != shadow.busy(now, key) {
					t.Fatalf("seed %d op %d: Busy(%v, %d) = %v, shadow %v",
						seed, op, now, key, f.Busy(now, key), shadow.busy(now, key))
				}
			case 2:
				// Drain with the watermark is exact over ALL ends ever
				// recorded; the shadow only sees unpruned entries, so Flight
				// may only report later-or-equal, bounded by the max end.
				got, want := f.Drain(now), shadow.drain(now)
				if got < want || got > sim.Max(now, maxEndSeen) {
					t.Fatalf("seed %d op %d: Drain(%v) = %v, shadow %v, maxEnd %v",
						seed, op, now, got, want, maxEndSeen)
				}
			}
			// End must agree for any entry the shadow still holds un-expired.
			if end, ok := shadow.m[key]; ok && end > now {
				if got, gok := f.End(key); !gok || got != end {
					t.Fatalf("seed %d op %d: End(%d) = (%v, %v), shadow %v", seed, op, key, got, gok, end)
				}
			}
		}
	}
}
