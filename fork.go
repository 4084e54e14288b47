package lightpc

import (
	"repro/internal/memctrl"
	"repro/internal/snapshot"
)

// Fork returns an independent copy of the platform: kernel (processes,
// cores, devices, wait queues, both memory banks), the full memory
// subsystem (PSM row buffers, wear leveler, PRAM cooling windows and RNG
// streams, or the DRAM controller's bank state), the lazily created data
// store, and — when metering is on — a meter set of its own: Fork binds
// fresh meters to the fork's devices, as New does, and copies each
// source meter's state residency into them. The memory banks are copied on
// write: the fork copies their page directories and shares their word
// pages, and either side copies a page on its first write to it. The copy
// and the source then evolve independently: running, power-failing, or
// recovering one is invisible to the other, and a forked run is
// byte-identical to rebuilding the platform and replaying the same inputs
// (forks copy state, they do not re-derive it).
//
// Fork only reads p, apart from the atomic stores that mark the banks'
// pages shared, so several goroutines may fork one platform at once as long
// as none of them runs it; each fork then belongs to its goroutine.
//
// Observer attachments are not forked: obs tracers on the SnG and the PSM
// and any bank write observers stay with the source, because an observer
// instance records one timeline. Fork a quiet platform, then instrument
// the copy.
func (p *Platform) Fork() *Platform {
	out := &Platform{cfg: p.cfg}
	if p.dramC != nil {
		out.dramC = p.dramC.Clone()
		out.backend = out.dramC
	}
	if p.psm != nil {
		out.psm = p.psm.Clone()
		out.backend = &memctrl.PSMBackend{PSM: out.psm}
	}
	if p.data != nil {
		out.data = p.data.CloneFor(out.psm)
	}
	out.bindMeters()
	out.energy.CopyResidency(p.energy)
	out.kern = p.kern.Clone()
	s := *p.sng
	s.K = out.kern
	s.P = out.psm
	s.Obs = nil
	s.Energy = out.energy
	s.CoreEnergy = out.coreM
	out.sng = &s
	snapshot.Default().RecordFork(p.forkBytes())
	return out
}

// forkBytes approximates the mutable state one fork copies eagerly — the
// dominant arenas, counted without walking them: the banks' page
// directories (their word pages are shared until written), PCBs, and the
// data store's line content. An observability estimate, not an exact
// allocator tally.
func (p *Platform) forkBytes() uint64 {
	var n uint64
	n += p.kern.OCPMEM.CloneBytes()
	if p.kern.DRAM != nil {
		n += p.kern.DRAM.CloneBytes()
	}
	n += 128 * uint64(len(p.kern.Procs))
	if p.data != nil {
		n += 64 * uint64(p.data.Lines())
	}
	return n
}
