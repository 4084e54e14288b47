package kernel

import (
	"maps"
	"sort"
)

// Bank is one addressable memory region. LightPC runs everything out of the
// persistent OC-PMEM bank; LegacyPC additionally has a volatile DRAM bank
// holding all processes and kernel data, which a power loss wipes.
type Bank struct {
	name       string
	persistent bool
	words      map[uint64]uint64

	// observer, when set, sees every mutation before it is applied (the
	// crash-point adversary's instrumentation seam).
	observer WriteObserver
}

// WriteObserver receives each mutation of a bank before it lands: the
// address touched, the previous word there, and whether one existed. Both
// Write and Delete report through it, so an observer can reconstruct the
// bank image as of any prefix of the write stream.
type WriteObserver func(addr, old uint64, hadOld bool)

// NewBank builds a bank.
func NewBank(name string, persistent bool) *Bank {
	return &Bank{name: name, persistent: persistent, words: make(map[uint64]uint64)}
}

// Name reports the bank's name.
func (b *Bank) Name() string { return b.name }

// Persistent reports whether contents survive power loss.
func (b *Bank) Persistent() bool { return b.persistent }

// SetWriteObserver installs (or, with nil, removes) the mutation observer.
func (b *Bank) SetWriteObserver(fn WriteObserver) { b.observer = fn }

// Write stores a word.
func (b *Bank) Write(addr, val uint64) {
	if b.observer != nil {
		old, had := b.words[addr]
		b.observer(addr, old, had)
	}
	b.words[addr] = val
}

// Read loads a word (absent addresses read as zero).
func (b *Bank) Read(addr uint64) uint64 { return b.words[addr] }

// Delete removes a word.
func (b *Bank) Delete(addr uint64) {
	if b.observer != nil {
		old, had := b.words[addr]
		b.observer(addr, old, had)
	}
	delete(b.words, addr)
}

// Len reports how many words are populated.
func (b *Bank) Len() int { return len(b.words) }

// PowerLoss models losing power: volatile banks are wiped, persistent
// banks keep their contents.
func (b *Bank) PowerLoss() {
	if !b.persistent {
		b.words = make(map[uint64]uint64)
	}
}

// Checksum folds the bank contents into a deterministic digest (FNV-style
// over sorted address/value pairs) — the tool the property tests use to
// prove the EP-cut restores state exactly.
func (b *Bank) Checksum() uint64 {
	addrs := make([]uint64, 0, len(b.words))
	for a := range b.words {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var h uint64 = 1469598103934665603
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	for _, a := range addrs {
		mix(a)
		mix(b.words[a])
	}
	return h
}

// ChecksumRange digests only the words with lo <= addr < hi, in the same
// FNV-over-sorted-pairs form as Checksum. It lets crash invariants compare
// one reserved region (pool, checkpoint, hibernation) while ignoring areas
// a legitimate Stop writes (BCB, DCBs).
func (b *Bank) ChecksumRange(lo, hi uint64) uint64 {
	addrs := make([]uint64, 0, len(b.words))
	for a := range b.words {
		if a >= lo && a < hi {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var h uint64 = 1469598103934665603
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	for _, a := range addrs {
		mix(a)
		mix(b.words[a])
	}
	return h
}

// Clone returns an independent copy of the bank's contents (no observer is
// carried over). The crash-point recorder clones the final image and
// rewinds it to reconstruct intermediate crash states.
func (b *Bank) Clone() *Bank {
	return &Bank{name: b.name, persistent: b.persistent, words: maps.Clone(b.words)}
}

// CopyTo snapshots every word of b into dst at the given address offset —
// the bulk transfer SysPC performs when hibernating DRAM contents into
// OC-PMEM.
func (b *Bank) CopyTo(dst *Bank, offset uint64) int {
	addrs := make([]uint64, 0, len(b.words))
	for a := range b.words {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		dst.Write(offset+a, b.words[a])
	}
	return len(addrs)
}

// RestoreFrom loads every word stored under offset in src back into b,
// removing the staged copy from src.
func (b *Bank) RestoreFrom(src *Bank, offset uint64) int {
	addrs := make([]uint64, 0, len(src.words))
	for a := range src.words {
		if a >= offset {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		b.Write(a-offset, src.words[a])
		delete(src.words, a)
	}
	return len(addrs)
}
