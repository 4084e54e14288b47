package nvdimm

import "repro/internal/pram"

// Clone returns a deep copy of the DIMM: every PRAM device is cloned, the
// write-power slots and counters are copied.
func (d *DIMM) Clone() *DIMM {
	out := &DIMM{
		cfg:            d.cfg,
		groups:         d.groups,
		slots:          d.slots,
		reads:          d.reads,
		writes:         d.writes,
		reconstructs:   d.reconstructs,
		rmwOps:         d.rmwOps,
		containedCorru: d.containedCorru,
	}
	out.devices = make([]*pram.Device, len(d.devices))
	for i, dev := range d.devices {
		out.devices[i] = dev.Clone()
	}
	return out
}
