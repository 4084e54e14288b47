package psm

import (
	"slices"

	"repro/internal/nvdimm"
)

// Clone returns a deep copy of the Start-Gap state (all value fields).
func (w *StartGap) Clone() *StartGap {
	if w == nil {
		return nil
	}
	out := *w
	return &out
}

// clone deep-copies the machine-check bookkeeping.
func (m *mceState) clone() mceState {
	return mceState{
		poisoned: m.poisoned.Clone(),
		resets:   m.resets,
		retries:  m.retries,
		poisons:  m.poisons,
	}
}

// Clone returns a deep copy of the PSM and its Bare-NVDIMM array: row
// buffers, wear-leveler cursor, latency histograms, command-queue
// occupancy, MCE bookkeeping, counters, and every PRAM device's
// RNG/cooling state. The tracer is not carried over — a tracer records one
// timeline, so the clone starts untraced (attach one with SetTracer).
func (p *PSM) Clone() *PSM {
	out := &PSM{
		cfg:          p.cfg,
		buffers:      slices.Clone(p.buffers),
		window:       p.window,
		slots:        p.slots,
		interleave:   p.interleave,
		wearLines:    p.wearLines,
		wl:           p.wl.Clone(),
		stats:        p.stats,
		readLat:      p.readLat.Clone(),
		writeAckLat:  p.writeAckLat.Clone(),
		hold:         p.hold,
		mce:          p.mce.clone(),
		drainScratch: make([]uint64, 0, cap(p.drainScratch)),
		scrubLines:   p.scrubLines,
	}
	out.dimms = make([]*nvdimm.DIMM, len(p.dimms))
	for i, d := range p.dimms {
		out.dimms[i] = d.Clone()
	}
	return out
}

// CloneFor returns a deep copy of the data store attached to the given
// cloned PSM (content slabs, RS codewords, dead-device set). The RS coder
// is shared — it is stateless after construction.
func (ds *DataStore) CloneFor(p *PSM) *DataStore {
	if ds == nil {
		return nil
	}
	dead := make(map[devKey]bool, len(ds.deadDevs))
	for k, v := range ds.deadDevs {
		dead[k] = v
	}
	return &DataStore{
		psm:             p,
		lines:           ds.lines.Clone(),
		rsWords:         ds.rsWords.Clone(),
		rs:              ds.rs,
		deadDevs:        dead,
		reconstructions: ds.reconstructions,
		symbolRepairs:   ds.symbolRepairs,
	}
}
