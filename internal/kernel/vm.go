package kernel

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/wordtab"
)

// Virtual memory: each process owns a page table anchored by the page-
// table-directory pointer in its PCB ("PCBs that SnG stored by
// Drive-to-Idle contain all execution environment and registers, including
// page table directory pointer", Section IV-C), and each core has a TLB
// that Go flushes before the ready-to-schedule state.

// PageSize is the VM granule.
const PageSize = 4096

// PageTable is one process's address space: VPN → PPN.
type PageTable struct {
	// Root is the page-table-directory pointer stored in the PCB.
	Root    uint64
	entries wordtab.Table
}

// NewPageTable allocates an address space rooted at the given directory
// address.
func NewPageTable(root uint64) *PageTable {
	return &PageTable{Root: root}
}

// MapPage installs a translation.
func (pt *PageTable) MapPage(vpn, ppn uint64) { pt.entries.Set(vpn, ppn) }

// UnmapPage removes one.
func (pt *PageTable) UnmapPage(vpn uint64) { pt.entries.Delete(vpn) }

// Walk translates a VPN; ok is false on a page fault.
func (pt *PageTable) Walk(vpn uint64) (ppn uint64, ok bool) { return pt.entries.Get(vpn) }

// Len reports mapped pages.
func (pt *PageTable) Len() int { return pt.entries.Len() }

// Checksum digests the address space (EP-cut verification) as an
// order-independent fold: the XOR of per-entry hashes.
func (pt *PageTable) Checksum() uint64 {
	var h uint64 = 1469598103934665603
	pt.entries.Range(0, math.MaxUint64, func(v, p uint64) {
		e := v*0x9E3779B97F4A7C15 ^ p*0xC2B2AE3D27D4EB4F
		e ^= e >> 29
		e *= 0xBF58476D1CE4E5B9
		h ^= e
	})
	return h ^ pt.Root
}

// TLB is a per-core translation cache with a simple FIFO replacement; SnG's
// Go flushes it before rescheduling ("restoring the virtual memory space
// and flushing TLB").
type TLB struct {
	capacity int
	// asid tags entries by page-table root so context switches don't need
	// a flush (only Go's full restore does).
	entries map[tlbKey]uint64
	order   []tlbKey

	hits, misses, flushes uint64
}

type tlbKey struct {
	root uint64
	vpn  uint64
}

// NewTLB builds a TLB with the given entry capacity.
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		capacity = 32
	}
	return &TLB{capacity: capacity, entries: make(map[tlbKey]uint64)}
}

// Translate resolves a virtual address through the TLB, walking the page
// table on a miss (charging walkCost to the returned latency). A page
// fault returns ok=false.
func (t *TLB) Translate(pt *PageTable, vaddr uint64, walkCost sim.Duration) (paddr uint64, lat sim.Duration, ok bool) {
	vpn := vaddr / PageSize
	key := tlbKey{root: pt.Root, vpn: vpn}
	if ppn, hit := t.entries[key]; hit {
		t.hits++
		return ppn*PageSize + vaddr%PageSize, 0, true
	}
	t.misses++
	ppn, found := pt.Walk(vpn)
	if !found {
		return 0, walkCost, false
	}
	if len(t.entries) >= t.capacity {
		oldest := t.order[0]
		t.order = t.order[1:]
		delete(t.entries, oldest)
	}
	t.entries[key] = ppn
	t.order = append(t.order, key)
	return ppn*PageSize + vaddr%PageSize, walkCost, true
}

// Flush drops every entry (Go's per-core TLB flush).
func (t *TLB) Flush() {
	t.entries = make(map[tlbKey]uint64)
	t.order = nil
	t.flushes++
}

// Stats reports hits, misses, flushes.
func (t *TLB) Stats() (hits, misses, flushes uint64) {
	return t.hits, t.misses, t.flushes
}

// Len reports cached translations.
func (t *TLB) Len() int { return len(t.entries) }

// AttachVM gives every process an address space and every core a TLB
// (called lazily so existing configurations don't pay for it).
func (k *Kernel) AttachVM(pagesPerProc int, tlbEntries int) {
	nextPPN := uint64(1)
	for _, p := range k.Procs {
		pt := NewPageTable(uint64(p.PID) << 32)
		for v := uint64(0); v < uint64(pagesPerProc); v++ {
			pt.MapPage(v, nextPPN)
			nextPPN++
		}
		p.PageTable = pt
	}
	for _, c := range k.Cores {
		c.TLB = NewTLB(tlbEntries)
	}
}

// FlushAllTLBs is Go's pre-schedule pass.
func (k *Kernel) FlushAllTLBs() {
	for _, c := range k.Cores {
		if c.TLB != nil {
			c.TLB.Flush()
		}
	}
}

// VMChecksum digests every address space.
func (k *Kernel) VMChecksum() uint64 {
	var h uint64 = 14695981039346656037
	for _, p := range k.Procs {
		if p.PageTable != nil {
			h ^= p.PageTable.Checksum()
			h *= 1099511628211
		}
	}
	return h
}

// vmSanity asserts a process's address space is self-consistent (used by
// tests and the EP-cut verification).
func vmSanity(p *Process) error {
	if p.PageTable == nil {
		return nil
	}
	if p.PageTable.Root != uint64(p.PID)<<32 {
		return fmt.Errorf("kernel: pid %d page-table root corrupted", p.PID)
	}
	return nil
}
