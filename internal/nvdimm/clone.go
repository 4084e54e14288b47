package nvdimm

import (
	"repro/internal/pram"
	"repro/internal/sim"
)

// Clone returns a deep copy of the DIMM: every PRAM device is cloned, the
// write-power slots and counters are copied. The device copies live in one
// slab and their RNGs in another.
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
	devs := make([]pram.Device, len(d.devices))
	rngs := make([]sim.RNG, len(d.devices))
	out.devices = make([]*pram.Device, len(d.devices))
	for i, dev := range d.devices {
		dev.CloneInto(&devs[i], &rngs[i])
		out.devices[i] = &devs[i]
	}
	return out
}
