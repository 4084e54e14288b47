package linetab

import (
	"encoding/binary"
	"testing"

	"repro/internal/sim"
)

// FuzzLineTab interprets the fuzz input as an op stream over every linetab
// structure, each run in lockstep with the plain map it replaced. The fuzzer
// hunts for index patterns (page boundaries, spill-directory indices) where
// the paged layout and the map disagree.
func FuzzLineTab(f *testing.F) {
	f.Add([]byte{})
	seed := make([]byte, 0, 64)
	for i := 0; i < 6; i++ {
		var b [10]byte
		b[0] = byte(i)
		binary.LittleEndian.PutUint64(b[1:9], uint64(i)<<(i*9))
		seed = append(seed, b[:]...)
	}
	f.Add(seed)
	f.Add([]byte{2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 7, 4, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCounters()
		cShadow := map[uint64]uint64{}
		tb := NewTable()
		tShadow := map[uint64]uint64{}
		b := NewBits()
		bShadow := map[uint64]bool{}
		var fl, twin Flight
		flShadow := map[uint64]sim.Time{}
		now := sim.Time(0)
		var maxEnd sim.Time

		for len(data) >= 10 {
			op := data[0]
			idx := binary.LittleEndian.Uint64(data[1:9])
			arg := uint64(data[9])
			data = data[10:]

			switch op % 4 {
			case 0:
				got := c.Add(idx, arg)
				cShadow[idx] += arg
				if cShadow[idx] == 0 {
					delete(cShadow, idx)
				}
				if got != cShadow[idx] {
					t.Fatalf("Counters.Add(%d, %d) = %d, shadow %d", idx, arg, got, cShadow[idx])
				}
			case 1:
				tb.Set(idx, arg)
				tShadow[idx] = arg
			case 2:
				b.Set(idx)
				bShadow[idx] = true
			case 3:
				now = now.Add(sim.Duration(arg))
				end := now.Add(sim.Duration(idx % 512))
				if op&4 != 0 {
					// Next, against End then Set on the twin: a command
					// issued up to 255 after now, lasting idx%512.
					at := now.Add(sim.Duration(idx >> 56))
					d := sim.Duration(idx % 512)
					got, want := fl.Next(now, at, idx%1024, d), flightNext(&twin, now, at, idx%1024, d)
					if got != want {
						t.Fatalf("Flight.Next(%v, %v, %d, %v) = %v, End then Set %v", now, at, idx%1024, d, got, want)
					}
					end = got.Add(d)
				} else {
					fl.Set(now, idx%1024, end)
					twin.Set(now, idx%1024, end)
				}
				flShadow[idx%1024] = end
				if end > maxEnd {
					maxEnd = end
				}
				if fl.Len() != twin.Len() || fl.Cap() != twin.Cap() {
					t.Fatalf("Flight Len/Cap (%d, %d), End then Set (%d, %d)", fl.Len(), fl.Cap(), twin.Len(), twin.Cap())
				}
			}

			if got := c.Get(idx); got != cShadow[idx] {
				t.Fatalf("Counters.Get(%d) = %d, shadow %d", idx, got, cShadow[idx])
			}
			gv, gok := tb.Get(idx)
			sv, sok := tShadow[idx]
			if gv != sv || gok != sok {
				t.Fatalf("Table.Get(%d) = (%d, %v), shadow (%d, %v)", idx, gv, gok, sv, sok)
			}
			if b.Get(idx) != bShadow[idx] {
				t.Fatalf("Bits.Get(%d) = %v, shadow %v", idx, b.Get(idx), bShadow[idx])
			}
			key := idx % 1024
			sEnd, sHeld := flShadow[key]
			if got := fl.Busy(now, key); got != (sHeld && sEnd > now) {
				t.Fatalf("Flight.Busy(%v, %d) = %v, shadow end %v (held %v)", now, key, got, sEnd, sHeld)
			}
			if got := fl.Drain(now); got != sim.Max(now, maxEnd) {
				t.Fatalf("Flight.Drain(%v) = %v, want %v", now, got, sim.Max(now, maxEnd))
			}
			if c.Touched() != len(cShadow) || tb.Len() != len(tShadow) || b.Count() != len(bShadow) {
				t.Fatalf("cardinality drift: Counters %d/%d, Table %d/%d, Bits %d/%d",
					c.Touched(), len(cShadow), tb.Len(), len(tShadow), b.Count(), len(bShadow))
			}
		}
	})
}
