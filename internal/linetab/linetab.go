// Package linetab provides the paged dense tables that back the
// device-model hot paths (pram wear, psm poison/line metadata, memctrl tag
// arrays). The simulated address spaces are line- or row-indexed and dense
// from zero (a workload footprint divided into 64 B lines), which a Go map
// serves with a hash, a probe, and incremental growth on every access; a
// profile of the experiment suite showed ~40% of all CPU inside map
// machinery for exactly these lookups. A paged table replaces that with
// one directory load and one slot load.
//
// Layout: a sparse page directory maps idx>>PageBits to fixed-size pages of
// typed slots. The directory is a flat slice for the page indices real
// workloads produce (direct indexing, no hash) with a small open-addressed
// spill table behind it so arbitrary 64-bit indices — fuzzers, adversarial
// tests — stay correct without unbounded directory growth.
//
// Iteration (ForEach, Max) walks pages in index order, so anything derived
// from a scan — a wear maximum, a scrub order — is deterministic, unlike
// ranging over a map.
//
// All tables treat absent slots as zero values; none of them allocate on
// reads, and writes allocate only when they touch a page for the first
// time.
package linetab

import (
	"math/bits"
	"sort"
)

// Page geometry: 512 slots per page, 4 KB pages of uint64 slots.
const (
	// PageBits is the number of index bits covered by one page.
	PageBits = 9
	// PageSize is the number of slots per page.
	PageSize = 1 << PageBits
	pageMask = PageSize - 1
)

// denseDirMax bounds the directly indexed part of the page directory
// (1 M pages = 2^29 slots ≈ 32 GB of 64 B lines — beyond any simulated
// footprint). Page indices past it go to the spill table.
const denseDirMax = 1 << 20

// hash64 is the multiplicative hash shared by the spill table and Flight.
//
//lightpc:zeroalloc
func hash64(x uint64) uint64 { return x * 0x9E3779B97F4A7C15 }

// dirIndex is the sparse page directory: pageIdx -> page slot. The dense
// slice serves the real address range by direct indexing; the spill table
// (open-addressed, never deleted from) covers page indices ≥ denseDirMax.
type dirIndex struct {
	dense []int32 // pageIdx -> slot+1; 0 = absent

	spillKeys  []uint64 // pageIdx; 0 = empty (spill keys are ≥ denseDirMax > 0)
	spillSlots []int32
	spillLive  int
	spillShift uint
}

// get reports the page slot for pageIdx, or -1.
//
//lightpc:zeroalloc
func (d *dirIndex) get(pi uint64) int32 {
	if pi < uint64(len(d.dense)) {
		return d.dense[pi] - 1
	}
	if pi < denseDirMax || d.spillLive == 0 {
		return -1
	}
	mask := uint64(len(d.spillKeys) - 1)
	for i := hash64(pi) >> d.spillShift; ; i = (i + 1) & mask {
		switch d.spillKeys[i] {
		case pi:
			return d.spillSlots[i]
		case 0:
			return -1
		}
	}
}

// put records pageIdx -> slot (pageIdx must not already be present).
//
//lightpc:zeroalloc
func (d *dirIndex) put(pi uint64, slot int32) {
	if pi < denseDirMax {
		if pi >= uint64(len(d.dense)) {
			grown := uint64(len(d.dense)) * 2
			if grown < 64 {
				grown = 64
			}
			for grown <= pi {
				grown *= 2
			}
			if grown > denseDirMax {
				grown = denseDirMax
			}
			//lint:allow zeroalloc directory growth is amortized, first touch of a new page range
			next := make([]int32, grown)
			copy(next, d.dense)
			d.dense = next
		}
		d.dense[pi] = slot + 1
		return
	}
	if (d.spillLive+1)*2 > len(d.spillKeys) {
		//lint:allow zeroalloc spill growth is amortized and only reached by adversarial indices
		d.growSpill()
	}
	mask := uint64(len(d.spillKeys) - 1)
	i := hash64(pi) >> d.spillShift
	for d.spillKeys[i] != 0 {
		i = (i + 1) & mask
	}
	d.spillKeys[i] = pi
	d.spillSlots[i] = slot
	d.spillLive++
}

func (d *dirIndex) growSpill() {
	size := len(d.spillKeys) * 2
	if size < 16 {
		size = 16
	}
	oldKeys, oldSlots := d.spillKeys, d.spillSlots
	d.spillKeys = make([]uint64, size)
	d.spillSlots = make([]int32, size)
	shift := uint(64)
	for s := size; s > 1; s >>= 1 {
		shift--
	}
	d.spillShift = shift
	mask := uint64(size - 1)
	for j, k := range oldKeys {
		if k == 0 {
			continue
		}
		i := hash64(k) >> d.spillShift
		for d.spillKeys[i] != 0 {
			i = (i + 1) & mask
		}
		d.spillKeys[i] = k
		d.spillSlots[i] = oldSlots[j]
	}
}

// forEach visits every mapped page in ascending page-index order.
func (d *dirIndex) forEach(fn func(pi uint64, slot int32)) {
	for pi, ref := range d.dense {
		if ref != 0 {
			fn(uint64(pi), ref-1)
		}
	}
	if d.spillLive == 0 {
		return
	}
	keys := make([]uint64, 0, d.spillLive)
	for _, k := range d.spillKeys {
		if k != 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		fn(k, d.get(k))
	}
}

// Counters is a paged table of uint64 counters indexed by line/row. A slot
// holding zero is indistinguishable from an untouched slot: Touched, Max,
// and ForEach consider only nonzero slots, which matches the map idiom it
// replaces (an entry exists once the row is first counted).
type Counters struct {
	dir     dirIndex
	pages   []counterPage
	touched int
}

type counterPage [PageSize]uint64

// NewCounters builds an empty counter table.
func NewCounters() *Counters { return &Counters{} }

// Get reports the counter at idx (zero when untouched).
//
//lightpc:zeroalloc
func (c *Counters) Get(idx uint64) uint64 {
	slot := c.dir.get(idx >> PageBits)
	if slot < 0 {
		return 0
	}
	return c.pages[slot][idx&pageMask]
}

// Add adds delta to the counter at idx and reports the new value.
//
//lightpc:zeroalloc
func (c *Counters) Add(idx uint64, delta uint64) uint64 {
	pi := idx >> PageBits
	slot := c.dir.get(pi)
	if slot < 0 {
		slot = int32(len(c.pages))
		//lint:allow zeroalloc page allocation happens once per page, on first touch
		c.pages = append(c.pages, counterPage{})
		c.dir.put(pi, slot)
	}
	v := &c.pages[slot][idx&pageMask]
	old := *v
	*v = old + delta
	if old == 0 {
		if *v != 0 {
			c.touched++
		}
	} else if *v == 0 {
		c.touched--
	}
	return *v
}

// Inc increments the counter at idx and reports the new value.
//
//lightpc:zeroalloc
func (c *Counters) Inc(idx uint64) uint64 { return c.Add(idx, 1) }

// Touched reports how many slots hold a nonzero count.
func (c *Counters) Touched() int { return c.touched }

// Max reports the highest counter and its index, scanning in index order so
// ties resolve to the lowest index. Zero values when the table is empty.
func (c *Counters) Max() (idx, val uint64) {
	c.ForEach(func(i, v uint64) {
		if v > val {
			idx, val = i, v
		}
	})
	return idx, val
}

// ForEach visits every nonzero slot in ascending index order.
func (c *Counters) ForEach(fn func(idx, val uint64)) {
	c.dir.forEach(func(pi uint64, slot int32) {
		p := &c.pages[slot]
		base := pi << PageBits
		for s, v := range p {
			if v != 0 {
				fn(base|uint64(s), v)
			}
		}
	})
}

// Table is a paged map from line/row index to a uint64 value with explicit
// presence (a stored zero is distinct from an absent slot) — the shape of a
// merged tag+dirty array.
type Table struct {
	dir   dirIndex
	pages []tablePage
	count int
}

type tablePage struct {
	present [PageSize / 64]uint64
	vals    [PageSize]uint64
}

// NewTable builds an empty table.
func NewTable() *Table { return &Table{} }

// Get reports the value at idx and whether one is present.
//
//lightpc:zeroalloc
func (t *Table) Get(idx uint64) (uint64, bool) {
	slot := t.dir.get(idx >> PageBits)
	if slot < 0 {
		return 0, false
	}
	p := &t.pages[slot]
	s := idx & pageMask
	if p.present[s>>6]&(1<<(s&63)) == 0 {
		return 0, false
	}
	return p.vals[s], true
}

// Set stores v at idx.
//
//lightpc:zeroalloc
func (t *Table) Set(idx uint64, v uint64) {
	pi := idx >> PageBits
	slot := t.dir.get(pi)
	if slot < 0 {
		slot = int32(len(t.pages))
		//lint:allow zeroalloc page allocation happens once per page, on first touch
		t.pages = append(t.pages, tablePage{})
		t.dir.put(pi, slot)
	}
	p := &t.pages[slot]
	s := idx & pageMask
	if p.present[s>>6]&(1<<(s&63)) == 0 {
		p.present[s>>6] |= 1 << (s & 63)
		t.count++
	}
	p.vals[s] = v
}

// Len reports how many slots hold a value.
func (t *Table) Len() int { return t.count }

// ForEach visits every present slot in ascending index order.
func (t *Table) ForEach(fn func(idx, val uint64)) {
	t.dir.forEach(func(pi uint64, slot int32) {
		p := &t.pages[slot]
		base := pi << PageBits
		for w, word := range p.present {
			for word != 0 {
				b := uint64(w)<<6 | uint64(bits.TrailingZeros64(word))
				fn(base|b, p.vals[b])
				word &= word - 1
			}
		}
	})
}

// Bits is a paged bitset over line indices (poison markers and similar
// sparse per-line flags). Get is nil-safe so an unallocated bitset costs a
// single compare on the hot path.
type Bits struct {
	dir   dirIndex
	pages []bitsPage
	count int
}

// Bits pages cover more index space per page than value tables: 32 K flag
// bits fill the same 4 KB page that 512 uint64 slots do.
const bitsPageBits = 15

type bitsPage [1 << (bitsPageBits - 6)]uint64

// NewBits builds an empty bitset.
func NewBits() *Bits { return &Bits{} }

// Get reports whether idx is set. A nil receiver reads as all-clear.
//
//lightpc:zeroalloc
func (b *Bits) Get(idx uint64) bool {
	if b == nil {
		return false
	}
	slot := b.dir.get(idx >> bitsPageBits)
	if slot < 0 {
		return false
	}
	s := idx & (1<<bitsPageBits - 1)
	return b.pages[slot][s>>6]&(1<<(s&63)) != 0
}

// Set marks idx.
//
//lightpc:zeroalloc
func (b *Bits) Set(idx uint64) {
	pi := idx >> bitsPageBits
	slot := b.dir.get(pi)
	if slot < 0 {
		slot = int32(len(b.pages))
		//lint:allow zeroalloc page allocation happens once per page, on first touch
		b.pages = append(b.pages, bitsPage{})
		b.dir.put(pi, slot)
	}
	s := idx & (1<<bitsPageBits - 1)
	if b.pages[slot][s>>6]&(1<<(s&63)) == 0 {
		b.pages[slot][s>>6] |= 1 << (s & 63)
		b.count++
	}
}

// Count reports how many bits are set.
func (b *Bits) Count() int {
	if b == nil {
		return 0
	}
	return b.count
}

// Slab stores fixed-size byte records indexed by line, with the content
// packed into one arena instead of one heap object per line (the datastore
// held a make([]byte, 64) per written cacheline). Rewriting a line reuses
// its arena slot in place.
type Slab struct {
	rec   int
	refs  Table
	arena []byte
}

// NewSlab builds a slab for records of rec bytes.
func NewSlab(rec int) *Slab {
	if rec <= 0 {
		panic("linetab: slab record size must be positive")
	}
	return &Slab{rec: rec}
}

// Put copies data (exactly the record size) into the slot for idx.
//
//lightpc:zeroalloc
func (s *Slab) Put(idx uint64, data []byte) {
	if len(data) != s.rec {
		panic("linetab: slab record size mismatch")
	}
	if ref, ok := s.refs.Get(idx); ok {
		copy(s.arena[int(ref)*s.rec:], data)
		return
	}
	ref := uint64(len(s.arena) / s.rec)
	//lint:allow zeroalloc arena growth is amortized; rewriting a line reuses its slot
	s.arena = append(s.arena, data...)
	s.refs.Set(idx, ref)
}

// Get reports a view of the record at idx (valid until the next Put, which
// may grow the arena) and whether one is present.
//
//lightpc:zeroalloc
func (s *Slab) Get(idx uint64) ([]byte, bool) {
	ref, ok := s.refs.Get(idx)
	if !ok {
		return nil, false
	}
	off := int(ref) * s.rec
	return s.arena[off : off+s.rec : off+s.rec], true
}

// Len reports how many records are stored.
func (s *Slab) Len() int { return s.refs.Len() }

// ForEach visits every record in ascending index order. The record slice is
// a live view; the callback must not retain it across Puts.
func (s *Slab) ForEach(fn func(idx uint64, rec []byte)) {
	s.refs.ForEach(func(idx, ref uint64) {
		off := int(ref) * s.rec
		fn(idx, s.arena[off:off+s.rec:off+s.rec])
	})
}
