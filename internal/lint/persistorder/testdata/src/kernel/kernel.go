// Package kernel models the persistent stores for the persistorder
// fixtures: Bank.Write and the EP-cut fields of Core and Kernel match the
// sink table by owning type, Store and SetMEPC carry MutatesPersistent
// facts, and Bootloader.Commit is the annotated EP-cut seal. kernel is not
// a scoped package, so nothing is reported here.
package kernel

// Bank is a word-addressable persistent memory bank.
type Bank struct{ words map[uint64]uint64 }

// Write stores a word: a sink.
func (b *Bank) Write(addr, val uint64) { b.words[addr] = val }

// Read loads a word.
func (b *Bank) Read(addr uint64) uint64 { return b.words[addr] }

// Store wraps the sink in a free function.
func Store(b *Bank, addr, val uint64) { b.Write(addr, val) }

// Bootloader owns the BCB in the persistent bank.
type Bootloader struct{ m *Bank }

// SetMEPC records the EP-cut's return address.
func (b *Bootloader) SetMEPC(pc uint64) { b.m.Write(8, pc) }

// Commit writes the EP-cut commit word.
//
//lightpc:commitpoint
func (b *Bootloader) Commit() { b.m.Write(0, 1) }

// Core and Kernel hold the state the EP-cut captures.
type Core struct {
	DirtyLines int
	MRegs      [4]uint64
	Online     bool
}

type Kernel struct {
	Boot        *Bootloader
	Cores       []*Core
	PersistFlag bool
}
