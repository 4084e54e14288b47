package pmemdimm

import "slices"

// clone deep-copies an LRU tier: the bucket array, the node arena, and the
// list/flush-epoch scalars. Both arrays are flat and fixed-size, so the
// copy is two slice copies.
func (l *lru) clone() *lru {
	if l == nil {
		return nil
	}
	c := *l
	c.heads = slices.Clone(l.heads)
	c.nodes = slices.Clone(l.nodes)
	return &c
}

// Clone returns a deep copy of the DIMM: RNG position, both LRU tier
// arenas, queue occupancy and stats.
func (d *DIMM) Clone() *DIMM {
	return &DIMM{
		cfg:       d.cfg,
		rng:       d.rng.Clone(),
		sram:      d.sram.clone(),
		dram:      d.dram.clone(),
		busyUntil: d.busyUntil,
		stats:     d.stats,
	}
}

// Clone returns a deep copy of the block-layer view over a cloned DIMM.
func (s *SectorDevice) Clone() *SectorDevice {
	return &SectorDevice{
		dimm:        s.dimm.Clone(),
		SyscallCost: s.SyscallCost,
		QueueDepth:  s.QueueDepth,
		inflight:    slices.Clone(s.inflight),
		reads:       s.reads,
		writes:      s.writes,
	}
}
