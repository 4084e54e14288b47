package memctrl

import "repro/internal/obs"

// RegisterMetrics exposes the DRAM controller's summed DIMM counters under
// prefix, sampled at export time.
func (c *DRAMController) RegisterMetrics(r *obs.Registry, prefix string) {
	if r == nil {
		return
	}
	r.CounterFunc(prefix+"reads_total", "DRAM reads serviced", func() uint64 { rd, _, _, _ := c.Stats(); return rd })
	r.CounterFunc(prefix+"writes_total", "DRAM writes serviced", func() uint64 { _, w, _, _ := c.Stats(); return w })
	r.CounterFunc(prefix+"rowbuffer_hits_total", "accesses that hit an open row", func() uint64 { _, _, h, _ := c.Stats(); return h })
	r.CounterFunc(prefix+"refreshes_total", "refresh cycles issued", func() uint64 { _, _, _, f := c.Stats(); return f })
}
