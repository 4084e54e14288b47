package kernel

import (
	"math"
	"math/bits"

	"repro/internal/wordtab"
)

// Bank is one addressable memory region. LightPC runs everything out of the
// persistent OC-PMEM bank; LegacyPC additionally has a volatile DRAM bank
// holding all processes and kernel data, which a power loss wipes.
//
// Words live in a wordtab.Table keyed by the address rotated right by three
// bits (wordKey). A word-aligned address a becomes a/8, so aligned words
// stay dense and in address order; an unaligned one lands at or above 2^61
// with the others of its residue a%8. Walks over a bank (Checksum,
// ChecksumRange, CopyTo, RestoreFrom) therefore visit word-aligned
// addresses in ascending order first, then each unaligned residue class in
// ascending order. Clone shares every page with its source, and either side
// copies a page on its first write to it.
type Bank struct {
	name       string
	persistent bool
	words      wordtab.Table

	// observer, when set, sees every mutation before it is applied (the
	// crash-point adversary's instrumentation seam).
	observer WriteObserver
}

// WriteObserver receives each mutation of a bank before it lands: the
// address touched, the previous word there, and whether one existed. Both
// Write and Delete report through it, so an observer can reconstruct the
// bank image as of any prefix of the write stream.
type WriteObserver func(addr, old uint64, hadOld bool)

// wordKey maps an address to its table key.
func wordKey(addr uint64) uint64 { return bits.RotateLeft64(addr, -3) }

// wordAddr inverts wordKey.
func wordAddr(key uint64) uint64 { return bits.RotateLeft64(key, 3) }

// NewBank builds a bank.
func NewBank(name string, persistent bool) *Bank {
	return &Bank{name: name, persistent: persistent}
}

// Name reports the bank's name.
func (b *Bank) Name() string { return b.name }

// Persistent reports whether contents survive power loss.
func (b *Bank) Persistent() bool { return b.persistent }

// SetWriteObserver installs (or, with nil, removes) the mutation observer.
func (b *Bank) SetWriteObserver(fn WriteObserver) { b.observer = fn }

// Write stores a word.
func (b *Bank) Write(addr, val uint64) {
	k := wordKey(addr)
	if b.observer != nil {
		old, had := b.words.Get(k)
		b.observer(addr, old, had)
	}
	b.words.Set(k, val)
}

// Read loads a word (absent addresses read as zero).
func (b *Bank) Read(addr uint64) uint64 {
	v, _ := b.words.Get(wordKey(addr))
	return v
}

// Delete removes a word.
func (b *Bank) Delete(addr uint64) {
	k := wordKey(addr)
	if b.observer != nil {
		old, had := b.words.Get(k)
		b.observer(addr, old, had)
	}
	b.words.Delete(k)
}

// Len reports how many words are populated.
func (b *Bank) Len() int { return b.words.Len() }

// PowerLoss models losing power: volatile banks are wiped, persistent
// banks keep their contents.
func (b *Bank) PowerLoss() {
	if !b.persistent {
		b.words.Reset()
	}
}

// walk calls fn for every word with lo <= addr <= last, in the bank's walk
// order. The residue-r addresses in range are 8q+r for q in [qlo, qhi], one
// contiguous key range each. fn may delete the word it is given; it must
// not otherwise write b.
func (b *Bank) walk(lo, last uint64, fn func(addr, val uint64)) {
	for r := uint64(0); r < 8 && r <= last; r++ {
		var qlo uint64
		if lo > r {
			d := lo - r
			qlo = d / 8
			if d%8 != 0 {
				qlo++
			}
		}
		qhi := (last - r) / 8
		if qlo > qhi {
			continue
		}
		b.words.Range(r<<61|qlo, r<<61|qhi, func(k, v uint64) { fn(wordAddr(k), v) })
	}
}

// fnvOffset seeds the bank digests.
const fnvOffset uint64 = 1469598103934665603

// mix folds one value into an FNV-style digest, a byte at a time.
func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= 1099511628211
	}
	return h
}

// Checksum folds the bank contents into a deterministic digest (FNV-style
// over address/value pairs in walk order) — the tool the property tests use
// to prove the EP-cut restores state exactly.
func (b *Bank) Checksum() uint64 {
	h := fnvOffset
	b.walk(0, math.MaxUint64, func(addr, val uint64) { h = mix(mix(h, addr), val) })
	return h
}

// ChecksumRange digests only the words with lo <= addr < hi, in the same
// form as Checksum. It lets crash invariants compare one reserved region
// (pool, checkpoint, hibernation) while ignoring areas a legitimate Stop
// writes (BCB, DCBs).
func (b *Bank) ChecksumRange(lo, hi uint64) uint64 {
	h := fnvOffset
	if lo < hi {
		b.walk(lo, hi-1, func(addr, val uint64) { h = mix(mix(h, addr), val) })
	}
	return h
}

// Clone returns a copy of the bank's contents that shares its pages with b
// until either side writes them (no observer is carried over). The
// crash-point recorder clones the final image and rewinds it to
// reconstruct intermediate crash states.
func (b *Bank) Clone() *Bank {
	return &Bank{name: b.name, persistent: b.persistent, words: b.words.Clone()}
}

// CloneBytes reports how many bytes Clone copies eagerly: the page
// directory, not the words.
func (b *Bank) CloneBytes() uint64 { return b.words.CloneBytes() }

// CopyTo snapshots every word of b into dst at the given address offset —
// the bulk transfer SysPC performs when hibernating DRAM contents into
// OC-PMEM. dst must not be b.
func (b *Bank) CopyTo(dst *Bank, offset uint64) int {
	n := 0
	b.walk(0, math.MaxUint64, func(addr, val uint64) {
		dst.Write(offset+addr, val)
		n++
	})
	return n
}

// RestoreFrom loads every word stored at or above offset in src back into
// b, removing the staged copy from src. Both sides report through their
// observers: b sees each load as a Write, src each removal as a Delete.
// src must not be b.
func (b *Bank) RestoreFrom(src *Bank, offset uint64) int {
	n := 0
	src.walk(offset, math.MaxUint64, func(addr, val uint64) {
		b.Write(addr-offset, val)
		src.Delete(addr)
		n++
	})
	return n
}
