package kernel

import (
	"math"
	"slices"
	"testing"

	"repro/internal/sim"
)

// The map formula the paged bank replaced: collect the addresses in range,
// sort them, fold each (address, value) pair FNV-style.
func mapChecksumRange(m map[uint64]uint64, lo, hi uint64, inclusive bool) uint64 {
	var addrs []uint64
	for a := range m {
		if a >= lo && (a < hi || inclusive && a == hi) {
			addrs = append(addrs, a)
		}
	}
	slices.Sort(addrs)
	var h uint64 = 1469598103934665603
	fold := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	for _, a := range addrs {
		fold(a)
		fold(m[a])
	}
	return h
}

// observed is one mutation a WriteObserver saw.
type observed struct {
	addr, old uint64
	hadOld    bool
}

func record(b *Bank) *[]observed {
	var log []observed
	b.SetWriteObserver(func(addr, old uint64, hadOld bool) {
		log = append(log, observed{addr, old, hadOld})
	})
	return &log
}

// alignedAddr draws a word-aligned address from the places banks use: the
// dense low range, process memory and save areas (pid<<20), every reserved
// region base, the hibernation DRAM payload, and the top of the space.
func alignedAddr(rng *sim.RNG) uint64 {
	off := rng.Uint64n(48) * 8
	switch rng.Intn(6) {
	case 0:
		return off
	case 1:
		return uint64(1+rng.Intn(40))<<20 + uint64(rng.Intn(2))*0x80000 + off
	case 2:
		bases := []uint64{RegionPool, RegionBCB, RegionCkpt, RegionDCB, RegionHib}
		return bases[rng.Intn(len(bases))] + off
	case 3:
		return RegionHib + hibDRAMOff + off
	case 4:
		return math.MaxUint64 - 7 - off
	default:
		return rng.Uint64() &^ 7
	}
}

// TestBankMatchesMapFormula drives banks of word-aligned addresses through
// writes and deletes in lockstep with a map model and checks every
// observable the map version defined: the observer's (old, hadOld) per
// mutation, Checksum and ChecksumRange values, the order and values CopyTo
// writes into its destination, and what RestoreFrom loads, deletes and
// reports on both sides.
func TestBankMatchesMapFormula(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := sim.NewRNG(seed)
		b := NewBank("ocpmem", true)
		seen := record(b)
		m := map[uint64]uint64{}
		var want []observed
		for i := 0; i < 300; i++ {
			a := alignedAddr(rng)
			old, had := m[a]
			want = append(want, observed{a, old, had})
			if rng.Bool(0.2) {
				b.Delete(a)
				delete(m, a)
			} else {
				v := rng.Uint64() >> uint(rng.Intn(64))
				b.Write(a, v)
				m[a] = v
			}
		}
		b.SetWriteObserver(nil)
		if !slices.Equal(*seen, want) {
			t.Fatalf("seed %d: observer saw %v, map model says %v", seed, *seen, want)
		}
		if b.Len() != len(m) {
			t.Fatalf("seed %d: Len %d, model %d", seed, b.Len(), len(m))
		}
		if got, w := b.Checksum(), mapChecksumRange(m, 0, math.MaxUint64, true); got != w {
			t.Fatalf("seed %d: Checksum %#x, map formula %#x", seed, got, w)
		}
		ranges := [][2]uint64{
			{RegionPool, RegionBCB}, {RegionCkpt, RegionDCB}, {RegionHib, math.MaxUint64},
			{0, 1 << 20}, {1, 9}, {8, 8}, {9, 3}, {0, math.MaxUint64},
		}
		for j := 0; j < 8; j++ {
			lo, hi := alignedAddr(rng)+rng.Uint64n(8), alignedAddr(rng)
			ranges = append(ranges, [2]uint64{min(lo, hi), max(lo, hi)})
		}
		for _, r := range ranges {
			if got, w := b.ChecksumRange(r[0], r[1]), mapChecksumRange(m, r[0], r[1], false); got != w {
				t.Fatalf("seed %d: ChecksumRange(%#x, %#x) = %#x, map formula %#x", seed, r[0], r[1], got, w)
			}
		}

		// CopyTo: the destination sees every word once, in address order.
		src := NewBank("dram", false)
		sm := map[uint64]uint64{0: 1, 8 << 20: 2}
		for a, v := range m {
			if a < RegionPool {
				sm[a] = v
			}
		}
		var addrs []uint64
		for a, v := range sm {
			src.Write(a, v)
			addrs = append(addrs, a)
		}
		slices.Sort(addrs)
		const off = RegionHib + hibDRAMOff
		dst := NewBank("ocpmem", true)
		dst.Write(off-8, 7)          // below the image: RestoreFrom keeps it
		dst.Write(off+addrs[1], 100) // stale image word: CopyTo overwrites it
		copied := record(dst)
		if n := src.CopyTo(dst, off); n != len(addrs) {
			t.Fatalf("seed %d: CopyTo moved %d words, want %d", seed, n, len(addrs))
		}
		var wantCopied, wantLoaded, wantRemoved []observed
		for i, a := range addrs {
			o := observed{off + a, 0, false}
			if i == 1 {
				o = observed{off + a, 100, true}
			}
			wantCopied = append(wantCopied, o)
			wantLoaded = append(wantLoaded, observed{a, 0, false})
			wantRemoved = append(wantRemoved, observed{off + a, sm[a], true})
		}
		if !slices.Equal(*copied, wantCopied) {
			t.Fatalf("seed %d: CopyTo wrote %v, want %v", seed, *copied, wantCopied)
		}

		// RestoreFrom: loads in address order, deleting each staged word from
		// the source through the source's observer.
		restored := NewBank("dram", false)
		loaded, removed := record(restored), record(dst)
		if n := restored.RestoreFrom(dst, off); n != len(addrs) {
			t.Fatalf("seed %d: RestoreFrom moved %d words, want %d", seed, n, len(addrs))
		}
		if !slices.Equal(*loaded, wantLoaded) || !slices.Equal(*removed, wantRemoved) {
			t.Fatalf("seed %d: RestoreFrom loaded %v and removed %v; want %v and %v",
				seed, *loaded, *removed, wantLoaded, wantRemoved)
		}
		if restored.Checksum() != src.Checksum() || restored.Len() != src.Len() {
			t.Fatalf("seed %d: restored image differs from the copied one", seed)
		}
		if dst.Len() != 1 || dst.Read(off-8) != 7 {
			t.Fatalf("seed %d: RestoreFrom left %d words; want only the one below the image", seed, dst.Len())
		}
	}
}

// TestBankUnalignedWords checks that unaligned addresses (the residue
// classes above 2^61 in the bank's table) keep map semantics: they read
// back, ChecksumRange honours their bounds, and they round-trip through
// CopyTo and RestoreFrom alongside aligned ones (apart from the two whose
// offset copy wraps below the offset).
func TestBankUnalignedWords(t *testing.T) {
	b := NewBank("dram", false)
	m := map[uint64]uint64{}
	for _, a := range []uint64{1, 2, 5, 7, 8, 9, 15, 16, 1<<20 + 3, math.MaxUint64, math.MaxUint64 - 1, 1 << 61, 1<<61 + 1} {
		b.Write(a, a^0x5a5a)
		m[a] = a ^ 0x5a5a
	}
	for a, v := range m {
		if b.Read(a) != v {
			t.Fatalf("Read(%#x) = %#x, want %#x", a, b.Read(a), v)
		}
	}
	if b.Len() != len(m) {
		t.Fatalf("Len %d, want %d", b.Len(), len(m))
	}
	if b.ChecksumRange(0, 16) == b.ChecksumRange(0, 15) {
		t.Fatal("ChecksumRange(0, 16) ignores the word at 15")
	}
	const off = 1 << 40
	img := NewBank("ocpmem", true)
	if n := b.CopyTo(img, off); n != len(m) {
		t.Fatalf("CopyTo moved %d of %d words", n, len(m))
	}
	fresh := NewBank("dram", false)
	fresh.RestoreFrom(img, off)
	for a, v := range m {
		if a+off >= off && fresh.Read(a) != v {
			t.Fatalf("restored %#x = %#x, want %#x", a, fresh.Read(a), v)
		}
	}
}

// TestBankWalksAllocFree pins the ordered walks at zero allocations: no key
// collection, no sort.
func TestBankWalksAllocFree(t *testing.T) {
	rng := sim.NewRNG(9)
	b := NewBank("ocpmem", true)
	for i := 0; i < 500; i++ {
		b.Write(alignedAddr(rng), rng.Uint64())
	}
	var sink uint64
	if n := testing.AllocsPerRun(20, func() {
		sink += b.Checksum()
		sink += b.ChecksumRange(RegionPool, RegionBCB)
		sink += b.ChecksumRange(RegionHib, math.MaxUint64)
	}); n != 0 {
		t.Fatalf("bank digests allocate %.1f times per run", n)
	}
}
