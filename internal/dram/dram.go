// Package dram models a DDR DRAM DIMM rank: banked open-page row buffers,
// activate/precharge/CAS timing, and periodic refresh. LegacyPC uses it as
// working memory; the Optane-style PMEM DIMM emulation uses it as its
// internal caching tier; and the near-memory-cache (memory mode) path caches
// PMEM data in it.
//
// Like the PRAM model this is a timing/traffic model: content correctness is
// validated at the OS layer.
package dram

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config parameterizes the DIMM timing.
type Config struct {
	Banks int // independent banks per rank

	RowHit  sim.Duration // CAS-only access (open row)
	RowMiss sim.Duration // precharge + activate + CAS

	RowSize uint64 // bytes covered by one row buffer

	RefreshInterval sim.Duration // tREFI: how often a refresh stalls the rank
	RefreshLatency  sim.Duration // tRFC: how long one refresh blocks
}

// DefaultConfig reflects a DDR4-class part: ~25 ns row hits, ~50 ns row
// misses, 8 KB rows, refresh every 7.8 µs costing 350 ns. The 50 ns row-miss
// read is the baseline against which Table I's PRAM ratios (1.1× read,
// 4.1× write) are expressed.
func DefaultConfig() Config {
	return Config{
		Banks:           8,
		RowHit:          sim.FromNanoseconds(25),
		RowMiss:         sim.FromNanoseconds(50),
		RowSize:         8 << 10,
		RefreshInterval: sim.FromNanoseconds(7800),
		RefreshLatency:  sim.FromNanoseconds(350),
	}
}

type bank struct {
	openRow   uint64
	hasOpen   bool
	busyUntil sim.Time
}

// DIMM is one DRAM rank servicing 64 B cacheline requests.
type DIMM struct {
	cfg   Config
	banks []bank

	nextRefresh sim.Time

	reads     sim.Counter
	writes    sim.Counter
	rowHits   sim.Counter
	refreshes sim.Counter
}

// New builds a DIMM from the config.
func New(cfg Config) *DIMM {
	if cfg.Banks <= 0 {
		cfg.Banks = 1
	}
	return &DIMM{
		cfg:         cfg,
		banks:       make([]bank, cfg.Banks),
		nextRefresh: sim.Time(cfg.RefreshInterval),
	}
}

// Config reports the DIMM configuration.
func (d *DIMM) Config() Config { return d.cfg }

//lightpc:zeroalloc
func (d *DIMM) bankAndRow(addr uint64) (int, uint64) {
	row := addr / d.cfg.RowSize
	return int(row % uint64(len(d.banks))), row
}

// refreshStall advances the refresh schedule and reports the earliest time
// the rank can serve a request arriving at start.
//
//lightpc:zeroalloc
func (d *DIMM) refreshStall(start sim.Time) sim.Time {
	if d.cfg.RefreshInterval <= 0 {
		return start
	}
	// Catch the schedule up to the request; each elapsed interval performed
	// one refresh in the background (they only stall requests that land in
	// the blocked window).
	for d.nextRefresh.Add(d.cfg.RefreshLatency) <= start {
		d.nextRefresh = d.nextRefresh.Add(d.cfg.RefreshInterval)
		d.refreshes.Inc()
	}
	if start >= d.nextRefresh {
		// Request landed inside a refresh window: wait it out.
		stallEnd := d.nextRefresh.Add(d.cfg.RefreshLatency)
		d.nextRefresh = d.nextRefresh.Add(d.cfg.RefreshInterval)
		d.refreshes.Inc()
		return stallEnd
	}
	return start
}

// access performs the shared timing path for reads and writes.
//
//lightpc:zeroalloc
func (d *DIMM) access(now sim.Time, addr uint64) (done sim.Time, rowHit bool) {
	bi, row := d.bankAndRow(addr)
	b := &d.banks[bi]
	start := sim.Max(now, b.busyUntil)
	start = d.refreshStall(start)
	lat := d.cfg.RowMiss
	if b.hasOpen && b.openRow == row {
		lat = d.cfg.RowHit
		rowHit = true
		d.rowHits.Inc()
	}
	b.openRow = row
	b.hasOpen = true
	done = start.Add(lat)
	b.busyUntil = done
	return done, rowHit
}

// Read services a 64 B read and returns its completion time.
//
//lightpc:zeroalloc
func (d *DIMM) Read(now sim.Time, addr uint64) sim.Time {
	d.reads.Inc()
	done, _ := d.access(now, addr)
	return done
}

// Write services a 64 B write; DRAM writes complete at CAS speed and are
// acknowledged at completion (no cooling window).
//
//lightpc:zeroalloc
func (d *DIMM) Write(now sim.Time, addr uint64) sim.Time {
	d.writes.Inc()
	done, _ := d.access(now, addr)
	return done
}

// Access dispatches by op, mirroring the backend interface used by
// controllers.
func (d *DIMM) Access(now sim.Time, a trace.Access) sim.Time {
	if a.Op == trace.OpWrite {
		return d.Write(now, a.Addr)
	}
	return d.Read(now, a.Addr)
}

// Drain reports when all banks go idle.
func (d *DIMM) Drain(now sim.Time) sim.Time {
	t := now
	for i := range d.banks {
		if d.banks[i].busyUntil > t {
			t = d.banks[i].busyUntil
		}
	}
	return t
}

// Stats reports cumulative counters: reads, writes, row-buffer hits, and
// refreshes performed.
func (d *DIMM) Stats() (reads, writes, rowHits, refreshes uint64) {
	return d.reads.Value(), d.writes.Value(), d.rowHits.Value(), d.refreshes.Value()
}
