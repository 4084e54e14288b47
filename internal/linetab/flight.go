package linetab

import "repro/internal/sim"

// Flight tracks in-progress operations as a bounded (key, end-time) set —
// the PRAM cooling windows (row -> program completion). The device's
// steady state is "nothing cooling", so Flight keeps a watermark of the
// latest end time ever recorded: once simulated time passes it, Busy and
// Drain answer with a single compare and never touch the table.
//
// The table itself is open-addressed with linear probing in a power-of-two
// arena. Inserting prunes expired entries (end ≤ now) in place before it
// grows, so a write-only phase — which never used to reach the map's
// read-side prune — stays at a fixed capacity with zero steady-state
// allocations. The arena grows only when the genuinely live entries exceed
// half its slots, which for a real device is bounded by the ratio of
// program latency to command occupancy.
//
// End times must be non-negative (sim.Time zero is the start of simulated
// time); keys are arbitrary.
type Flight struct {
	slots []flightSlot
	live  int
	shift uint

	maxEnd sim.Time // latest end ever recorded; never decreases

	scratch []flightSlot
}

// flightSlot is one arena slot. Keys and ends share the slot, so the arena
// is one allocation.
type flightSlot struct {
	key uint64
	end int64 // end+1; 0 = empty slot
}

// flightMinSlots is the initial arena size: 64 slots carries twice the
// prune threshold the map-based device used.
//
// Changing it changes simulated results, not just memory. rebuild prunes
// every entry that ends at or before the inserting write's now, but a PRAM
// write is stamped with its write-slot start, which can be later than the
// next read the PSM issues; a window pruned that way still covers that
// read, and Busy reports the row idle. When the arena fills therefore
// decides which cooling windows are forgotten early. A 32-slot first arena
// leaves every golden byte-identical but moves full-size LightPC results
// (TestFullSizePSMResultsPinned at the repository root).
const flightMinSlots = 64

// Quiet reports that nothing can be in flight at now: every end time ever
// recorded has passed. This is the hot-path fast case.
//
//lightpc:zeroalloc
func (f *Flight) Quiet(now sim.Time) bool { return now >= f.maxEnd }

// End reports the recorded end time for key. Expired entries may or may
// not still be present — callers compare the returned time against their
// own clock, exactly as the map-based device did.
//
//lightpc:zeroalloc
func (f *Flight) End(key uint64) (sim.Time, bool) {
	if f.live == 0 {
		return 0, false
	}
	mask := uint64(len(f.slots) - 1)
	for i := hash64(key) >> f.shift; ; i = (i + 1) & mask {
		sl := &f.slots[i]
		if sl.end == 0 {
			return 0, false
		}
		if sl.key == key {
			return sim.Time(sl.end - 1), true
		}
	}
}

// Busy reports whether key has an operation still in flight at now.
//
//lightpc:zeroalloc
func (f *Flight) Busy(now sim.Time, key uint64) bool {
	if f.Quiet(now) {
		return false
	}
	end, ok := f.End(key)
	return ok && end > now
}

// Drain reports when every in-flight operation has ended: the watermark is
// exact because entries are only dropped once their end has passed.
//
//lightpc:zeroalloc
func (f *Flight) Drain(now sim.Time) sim.Time { return sim.Max(now, f.maxEnd) }

// Set records that key's operation ends at end. now is the caller's clock,
// used to prune expired entries when the arena needs room.
//
//lightpc:zeroalloc
func (f *Flight) Set(now sim.Time, key uint64, end sim.Time) {
	f.record(now, key, end, 0, false)
}

// Next records the operation on key that starts at at, or when key's
// recorded operation ends if that is later, and lasts d; it returns the
// start. It is End then Set in one probe: Set and Next share record, so
// the entry lands in the slot Set would have used, and the arena prunes
// at now as Set does; the points at which it fills and prunes are the
// same.
//
//lightpc:zeroalloc
func (f *Flight) Next(now, at sim.Time, key uint64, d sim.Duration) sim.Time {
	return f.record(now, key, at, d, true)
}

// record finds key's slot, or the empty slot that ends its probe
// sequence, once. With after set, the operation starts no earlier than
// key's recorded end. The entry ends d after the start, which record
// returns. An insert that would take the arena past half full prunes at
// now first.
//
//lightpc:zeroalloc
func (f *Flight) record(now sim.Time, key uint64, at sim.Time, d sim.Duration, after bool) sim.Time {
	if f.slots == nil {
		//lint:allow zeroalloc one-time lazy arena init on the first in-flight op
		f.slots = make([]flightSlot, flightMinSlots)
		f.shift = 64 - 6
	}
	mask := uint64(len(f.slots) - 1)
	var sl *flightSlot
	for i := hash64(key) >> f.shift; ; i = (i + 1) & mask {
		if sl = &f.slots[i]; sl.end == 0 || sl.key == key {
			break
		}
	}
	if after && sl.end != 0 {
		at = sim.Max(at, sim.Time(sl.end-1))
	}
	end := at.Add(d)
	if end < 0 {
		panic("linetab: negative Flight end time")
	}
	if end > f.maxEnd {
		f.maxEnd = end
	}
	if sl.end == 0 {
		if (f.live+1)*2 > len(f.slots) {
			//lint:allow zeroalloc prune/grow is amortized; steady state stays at fixed capacity
			f.rebuild(now)
			// Re-probe: the arena was rewritten under us, and key is not
			// in it.
			mask = uint64(len(f.slots) - 1)
			for i := hash64(key) >> f.shift; ; i = (i + 1) & mask {
				if sl = &f.slots[i]; sl.end == 0 {
					break
				}
			}
		}
		f.live++
	}
	*sl = flightSlot{key: key, end: int64(end) + 1}
	return at
}

// rebuild prunes expired entries in place and, when the survivors still
// crowd the arena, doubles it.
func (f *Flight) rebuild(now sim.Time) {
	f.scratch = f.scratch[:0]
	for _, sl := range f.slots {
		if sl.end != 0 && sim.Time(sl.end-1) > now {
			f.scratch = append(f.scratch, sl)
		}
	}
	size := len(f.slots)
	for (len(f.scratch)+1)*2 > size {
		size *= 2
	}
	if size != len(f.slots) {
		f.slots = make([]flightSlot, size)
		shift := uint(64)
		for s := size; s > 1; s >>= 1 {
			shift--
		}
		f.shift = shift
	} else {
		clear(f.slots)
	}
	mask := uint64(size - 1)
	for _, sl := range f.scratch {
		i := hash64(sl.key) >> f.shift
		for f.slots[i].end != 0 {
			i = (i + 1) & mask
		}
		f.slots[i] = sl
	}
	f.live = len(f.scratch)
}

// Len reports the number of entries currently held (live plus not yet
// pruned).
func (f *Flight) Len() int { return f.live }

// Cap reports the arena size in slots — the bounded-memory observable.
func (f *Flight) Cap() int { return len(f.slots) }
