package kernel

// Bootloader models the Berkeley bootloader role in SnG: it is the only
// context allowed to touch machine-mode registers, and it owns the
// bootloader control block (BCB) in a reserved OC-PMEM area — per-core
// machine registers, the machine exception program counter (MEPC) marking
// the EP-cut, the wear-leveler metadata, and the commit word Go checks to
// distinguish power recovery from a cold boot (Section IV-B/C).
type Bootloader struct {
	ocpmem *Bank
}

// bcbBase is the reserved OC-PMEM region holding the BCB.
const bcbBase = 0xB0_0000_0000

const (
	bcbCommitOff = 0
	bcbMEPCOff   = 8
	bcbWearOff   = 16 // 4 words
	bcbCoreOff   = 64 // 4 words per core
)

// commitMagic is the committed-EP-cut marker.
const commitMagic = 0x5EC0_FFEE_C0_11EC

// NewBootloader attaches the bootloader to the persistent bank.
func NewBootloader(ocpmem *Bank) *Bootloader {
	return &Bootloader{ocpmem: ocpmem}
}

// SaveCoreRegisters stores a core's machine-mode registers into the BCB
// (the exception-call path of Auto-Stop: these registers are invisible to
// the kernel).
func (b *Bootloader) SaveCoreRegisters(c *Core) {
	base := bcbBase + bcbCoreOff + uint64(c.ID)*32
	for i, r := range c.MRegs {
		b.ocpmem.Write(base+uint64(i)*8, r)
	}
}

// RestoreCoreRegisters reloads a core's machine-mode registers from the
// BCB.
func (b *Bootloader) RestoreCoreRegisters(c *Core) {
	base := bcbBase + bcbCoreOff + uint64(c.ID)*32
	for i := range c.MRegs {
		c.MRegs[i] = b.ocpmem.Read(base + uint64(i)*8)
	}
}

// SetMEPC records the return address where Go re-enters the kernel.
func (b *Bootloader) SetMEPC(pc uint64) { b.ocpmem.Write(bcbBase+bcbMEPCOff, pc) }

// MEPC reads the recorded EP-cut program counter.
func (b *Bootloader) MEPC() uint64 { return b.ocpmem.Read(bcbBase + bcbMEPCOff) }

// SaveWearMeta stores the Start-Gap registers (start, gap, write counter,
// randomizer seed) — under 64 B for multi-TB memories (Section VIII).
func (b *Bootloader) SaveWearMeta(meta [4]uint64) {
	for i, w := range meta {
		b.ocpmem.Write(bcbBase+bcbWearOff+uint64(i)*8, w)
	}
}

// WearMeta reads the persisted wear-leveler registers.
func (b *Bootloader) WearMeta() [4]uint64 {
	var meta [4]uint64
	for i := range meta {
		meta[i] = b.ocpmem.Read(bcbBase + bcbWearOff + uint64(i)*8)
	}
	return meta
}

// Commit writes the EP-cut commit word — the very last store of Stop.
//
//lightpc:commitpoint
func (b *Bootloader) Commit() { b.ocpmem.Write(bcbBase+bcbCommitOff, commitMagic) }

// HasCommit reports whether a committed EP-cut exists (Go's first check).
func (b *Bootloader) HasCommit() bool {
	return b.ocpmem.Read(bcbBase+bcbCommitOff) == commitMagic
}

// ClearCommit consumes the commit. Go calls it as its last step, after it
// has resumed the devices, restored the wear-leveler metadata and requeued
// every task, so a second outage during Go finds the commit still set and
// the next Go runs again from the same BCB.
func (b *Bootloader) ClearCommit() { b.ocpmem.Write(bcbBase+bcbCommitOff, 0) }
