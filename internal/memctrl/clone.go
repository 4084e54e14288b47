package memctrl

import "repro/internal/dram"

// Clone returns a deep copy of the controller and its DIMMs.
func (c *DRAMController) Clone() *DRAMController {
	out := &DRAMController{interleave: c.interleave, ctrlLat: c.ctrlLat}
	out.dimms = make([]*dram.DIMM, len(c.dimms))
	for i, d := range c.dimms {
		out.dimms[i] = d.Clone()
	}
	return out
}
