package nvdimm

import (
	"repro/internal/pram"
	"repro/internal/sim"
)

// Clone returns a deep copy of the DIMM: every chip-enable group's PRAM
// device is cloned, the write-power slots and counters are copied. The
// device copies live in one slab and their dies' RNGs in another.
func (d *DIMM) Clone() *DIMM {
	out := &DIMM{
		cfg:            d.cfg,
		shift:          d.shift,
		groups:         d.groups,
		slots:          d.slots,
		reads:          d.reads,
		writes:         d.writes,
		reconstructs:   d.reconstructs,
		rmwOps:         d.rmwOps,
		containedCorru: d.containedCorru,
	}
	devs := make([]pram.Device, len(d.devices))
	rngs := make([]sim.RNG, d.cfg.DevicesPerDIMM)
	out.devices = make([]*pram.Device, len(d.devices))
	for i, dev := range d.devices {
		rngs = dev.CloneInto(&devs[i], rngs)
		out.devices[i] = &devs[i]
	}
	return out
}
