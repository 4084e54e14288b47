// Package memctrl provides the host-side memory controllers of Figure 1 and
// the adapters that let the L1 cache model miss into any memory substrate:
//
//   - DRAMController: channel-interleaved local-node DRAM (LegacyPC's
//     working memory and the DRAM-only baseline of Figure 4);
//   - NMEM: the near-memory cache controller of PMEM's memory mode, which
//     caches PMEM DIMM data in local DRAM and overlaps the two transfers
//     with the snarf shared-memory interface;
//   - PSMBackend: the OC-PMEM path (DAX-like flat mapping onto the PSM);
//   - PMEMBackend: app-direct mode — loads/stores go to the PMEM DIMM
//     directly.
package memctrl

import (
	"repro/internal/dram"
	"repro/internal/linetab"
	"repro/internal/pmemdimm"
	"repro/internal/psm"
	"repro/internal/sim"
)

// DRAMController interleaves 64 B lines across a set of DRAM DIMMs behind a
// fixed controller pipeline latency.
type DRAMController struct {
	dimms      []*dram.DIMM
	interleave sim.Divisor // len(dimms)
	ctrlLat    sim.Duration
}

// NewDRAMController builds a controller over n DIMMs with the given config.
func NewDRAMController(n int, cfg dram.Config, ctrlLat sim.Duration) *DRAMController {
	if n <= 0 {
		n = 1
	}
	c := &DRAMController{interleave: sim.NewDivisor(uint64(n)), ctrlLat: ctrlLat}
	for i := 0; i < n; i++ {
		c.dimms = append(c.dimms, dram.New(cfg))
	}
	return c
}

//lightpc:zeroalloc
func (c *DRAMController) route(addr uint64) (*dram.DIMM, uint64) {
	inner, idx := c.interleave.DivMod(addr / 64)
	return c.dimms[idx], inner * 64
}

// Read services a 64 B line read.
//
//lightpc:zeroalloc
func (c *DRAMController) Read(now sim.Time, addr uint64) sim.Time {
	d, a := c.route(addr)
	return d.Read(now.Add(c.ctrlLat), a)
}

// Write services a 64 B line write.
//
//lightpc:zeroalloc
func (c *DRAMController) Write(now sim.Time, addr uint64) sim.Time {
	d, a := c.route(addr)
	return d.Write(now.Add(c.ctrlLat), a)
}

// DIMMs exposes the underlying DIMMs (refresh/power accounting).
func (c *DRAMController) DIMMs() []*dram.DIMM { return c.dimms }

// Stats sums the DIMM counters.
func (c *DRAMController) Stats() (reads, writes, rowHits, refreshes uint64) {
	for _, d := range c.dimms {
		r, w, h, f := d.Stats()
		reads += r
		writes += w
		rowHits += h
		refreshes += f
	}
	return
}

// PSMBackend adapts the PSM's line-indexed ports to the cache's
// byte-addressed backend interface. This is the OC-PMEM datapath: the
// applications' stack/heap/code live directly on PRAM.
type PSMBackend struct {
	PSM *psm.PSM
}

// Read services a 64 B line read through the PSM read port.
//
//lightpc:zeroalloc
func (b *PSMBackend) Read(now sim.Time, addr uint64) sim.Time {
	return b.PSM.Read(now, addr/64)
}

// Write services a 64 B line write through the PSM write port.
//
//lightpc:zeroalloc
func (b *PSMBackend) Write(now sim.Time, addr uint64) sim.Time {
	return b.PSM.Write(now, addr/64)
}

// PMEMBackend is app-direct mode: DAX maps the device file flat into the
// address space (translation is a constant add — negligible), and every
// L1 miss becomes a PMEM DIMM access with its internal buffer/firmware
// overheads (the +28% latency of Figure 4).
type PMEMBackend struct {
	DIMM *pmemdimm.DIMM
	// DAXLatency is the per-access cost of the direct-access mapping.
	DAXLatency sim.Duration
}

// Read services a 64 B line read from the PMEM DIMM.
//
//lightpc:zeroalloc
func (b *PMEMBackend) Read(now sim.Time, addr uint64) sim.Time {
	return b.DIMM.Read(now.Add(b.DAXLatency), addr)
}

// Write services a 64 B line write to the PMEM DIMM.
//
//lightpc:zeroalloc
func (b *PMEMBackend) Write(now sim.Time, addr uint64) sim.Time {
	return b.DIMM.Write(now.Add(b.DAXLatency), addr)
}

// NMEM is the near-memory cache controller of PMEM's memory mode: local
// DRAM acts as a direct-mapped cache (4 KB blocks) over the PMEM DIMM, and
// the snarf interface overlaps the DRAM fill with the PMEM read so the miss
// cost is the max of the two, not the sum. The result is DRAM-like
// performance (within ~1.3% of DRAM-only in Figure 4) at the price of
// losing persistence.
type NMEM struct {
	dram *DRAMController
	pmem *pmemdimm.DIMM

	blockBits uint
	// lines maps cache-set -> tag<<1 | dirty, folding the tag array and
	// dirty bits into one table so the hot hit path costs a single lookup.
	lines *linetab.Table

	sets sim.Divisor // CacheBlocks: splits a block number into tag and set

	hits, misses, writebacks sim.Counter
}

// NMEMConfig parameterizes the memory-mode cache.
type NMEMConfig struct {
	// CacheBlocks is the number of 4 KB blocks of local DRAM used as the
	// near-memory cache.
	CacheBlocks uint64
}

// NewNMEM wires the controller.
func NewNMEM(d *DRAMController, p *pmemdimm.DIMM, cfg NMEMConfig) *NMEM {
	if cfg.CacheBlocks == 0 {
		cfg.CacheBlocks = 1 << 15 // 128 MB of near cache
	}
	return &NMEM{
		dram:      d,
		pmem:      p,
		blockBits: 12,
		lines:     linetab.NewTable(),
		sets:      sim.NewDivisor(cfg.CacheBlocks),
	}
}

//lightpc:zeroalloc
func (n *NMEM) setAndTag(addr uint64) (set, tag uint64) {
	tag, set = n.sets.DivMod(addr >> n.blockBits)
	return set, tag
}

//lightpc:zeroalloc
func (n *NMEM) access(now sim.Time, addr uint64, write bool) sim.Time {
	set, tag := n.setAndTag(addr)
	line, ok := n.lines.Get(set)
	curTag := line >> 1
	if ok && curTag == tag {
		n.hits.Inc()
		if write {
			n.lines.Set(set, line|1)
			return n.dram.Write(now, addr)
		}
		return n.dram.Read(now, addr)
	}
	// Miss: evict (writeback to PMEM if dirty), then fill. Snarf overlaps
	// the DRAM-side and PMEM-side transfers.
	n.misses.Inc()
	start := now
	if ok && line&1 != 0 {
		n.writebacks.Inc()
		n.pmem.Write(start, (curTag*n.sets.N()+set)<<n.blockBits)
	}
	pmemDone := n.pmem.Read(start, addr)
	var dramDone sim.Time
	if write {
		dramDone = n.dram.Write(start, addr)
	} else {
		dramDone = n.dram.Read(start, addr)
	}
	line = tag << 1
	if write {
		line |= 1
	}
	n.lines.Set(set, line)
	return sim.Max(pmemDone, dramDone)
}

// Read services a 64 B line read.
//
//lightpc:zeroalloc
func (n *NMEM) Read(now sim.Time, addr uint64) sim.Time {
	return n.access(now, addr, false)
}

// Write services a 64 B line write.
//
//lightpc:zeroalloc
func (n *NMEM) Write(now sim.Time, addr uint64) sim.Time {
	return n.access(now, addr, true)
}

// Stats reports near-cache hits, misses, and writebacks.
func (n *NMEM) Stats() (hits, misses, writebacks uint64) {
	return n.hits.Value(), n.misses.Value(), n.writebacks.Value()
}
