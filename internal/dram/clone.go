package dram

import "slices"

// Clone returns a deep copy of the DIMM: per-bank row/occupancy state,
// refresh schedule, and counters.
func (d *DIMM) Clone() *DIMM {
	return &DIMM{
		cfg:         d.cfg,
		banks:       slices.Clone(d.banks),
		nextRefresh: d.nextRefresh,
		reads:       d.reads,
		writes:      d.writes,
		rowHits:     d.rowHits,
		refreshes:   d.refreshes,
	}
}
