// Package pram models a bare-metal phase-change memory (PRAM) device as used
// by LightPC's Bare-NVDIMMs (Section V): a 32 B-granule medium with
// deterministic read latency close to DRAM, writes 4–8× slower than reads
// because the thermal core must cool off after programming, and a bounded
// write endurance.
//
// The model is a timing model: it does not store data (the simulation's
// correctness properties are checked at the OS layer where content matters),
// but it faithfully tracks device-interface serialization, per-row in-flight
// programming windows (the source of read-after-write conflicts), wear, and
// injected bit errors.
package pram

import (
	"repro/internal/linetab"
	"repro/internal/sim"
)

// Granule is the per-device input granularity of the PRAM media (Section
// V-B): 32 bytes, vs 8 bytes for DRAM.
const Granule = 32

// DeviceConfig parameterizes one PRAM device.
type DeviceConfig struct {
	// ReadLatency is the deterministic time to sense one 32 B granule.
	ReadLatency sim.Duration
	// WriteLatency is the time to program one granule, including the
	// thermal cooling window; the row must not be touched until it passes.
	WriteLatency sim.Duration
	// TrackWear enables per-row write counters (used by the wear-leveling
	// experiments; costs memory proportional to touched rows).
	TrackWear bool
	// BitErrorPerRead is the probability that a read returns corrupted
	// data that the PSM's ECC must contain.
	BitErrorPerRead float64
	// EnduranceCycles is the per-row set/reset budget (Section VIII:
	// 10^6–10^9 for today's PRAM). Once a row's write count exceeds it,
	// reads of that row return corrupted data deterministically — the
	// wear-out failure mode wear leveling defers. Zero disables (and it
	// requires TrackWear).
	EnduranceCycles uint64
	// Seed drives the error-injection stream.
	Seed uint64
}

// DefaultConfig mirrors Table I: PRAM read latency 1.1× the DRAM end-to-end
// random read (~55 ns device + controller) and write latency 4.1× the read
// latency (Section VI, Table I, [61]).
func DefaultConfig() DeviceConfig {
	read := sim.FromNanoseconds(61)
	return DeviceConfig{
		ReadLatency:  read,
		WriteLatency: sim.Duration(4.1 * float64(read)),
		Seed:         1,
	}
}

// Device is the PRAM dies behind one Bare-NVDIMM chip enable. Every
// command reaches each die of the group with the same row at the same
// instant, so the dies share one command-interface clock, one set of
// cooling windows and one wear table; only error injection is per die.
// Stats and TouchedRows report die totals.
type Device struct {
	cfg  DeviceConfig
	rngs []sim.RNG // one error-injection stream per die

	// busyUntil serializes the device command interface.
	busyUntil sim.Time
	// inFlight tracks row -> completion time of in-progress program
	// operations (the cooling windows). Its watermark makes the common
	// "nothing cooling" case a single compare, and it prunes expired
	// windows on insert, so write-only phases stay bounded too.
	inFlight linetab.Flight

	wear        *linetab.Counters
	reads       sim.Counter // group commands; each reached every die
	writes      sim.Counter
	conflicts   sim.Counter // reads that found the target row programming
	errInjected sim.Counter // per die
}

// NewDevice builds a single die from the config.
func NewDevice(cfg DeviceConfig) *Device { return NewGroup(cfg, 1) }

// NewGroup builds the dies (at least one) that share a chip enable; die i
// seeds its error injection with cfg.Seed+i.
func NewGroup(cfg DeviceConfig, dies int) *Device {
	d := &Device{cfg: cfg, rngs: make([]sim.RNG, dies)}
	for i := range d.rngs {
		d.rngs[i] = *sim.NewRNG(cfg.Seed + uint64(i))
	}
	if cfg.TrackWear {
		d.wear = linetab.NewCounters()
	}
	return d
}

// Config reports the device configuration.
func (d *Device) Config() DeviceConfig { return d.cfg }

// Busy reports whether the row is inside a programming/cooling window at
// time now (the read-after-write hazard the PSM's XCC resolves).
//
//lightpc:zeroalloc
func (d *Device) Busy(now sim.Time, row uint64) bool {
	return d.inFlight.Busy(now, row)
}

// Quiet reports that no row can be cooling at now or later: every program
// issued so far has completed. Most reads find a device quiet, and the
// check inlines where a Cooling call does not.
//
//lightpc:zeroalloc
func (d *Device) Quiet(now sim.Time) bool { return d.inFlight.Quiet(now) }

// Cooling reports when the row's recorded cooling window ends. A time at or
// before now (0 when nothing can still be cooling) means the row is idle
// from now on, so Busy(now, row) is Cooling(now, row) > now. ReadCooling
// takes the answer, so a caller that probed first does not probe again.
//
//lightpc:zeroalloc
func (d *Device) Cooling(now sim.Time, row uint64) sim.Time {
	if d.inFlight.Quiet(now) {
		return 0
	}
	end, _ := d.inFlight.End(row)
	return end
}

// Read senses one granule at row on every die. It returns the completion
// time, whether the read collided with an in-flight program of the same
// row (in which case the returned time already includes waiting for the
// program to finish — a LightPC-B-style blocking service), and whether any
// die's data came back corrupted.
//
// Callers that can reconstruct from ECC (LightPC's PSM) should probe with
// Cooling first, avoid the blocking read while the row cools, and pass
// the probe's answer to ReadCooling otherwise.
//
//lightpc:zeroalloc
func (d *Device) Read(now sim.Time, row uint64) (done sim.Time, conflicted, corrupted bool) {
	return d.ReadCooling(now, row, d.Cooling(now, row))
}

// ReadCooling is Read for a caller that already has Cooling(now, row) and
// has not written to the device since.
//
//lightpc:zeroalloc
func (d *Device) ReadCooling(now sim.Time, row uint64, cooling sim.Time) (done sim.Time, conflicted, corrupted bool) {
	d.reads.Inc()
	start := sim.Max(now, d.busyUntil)
	if cooling > start {
		// Must wait for the thermal core to cool before sensing.
		start = cooling
		conflicted = true
		d.conflicts.Inc()
	}
	done = start.Add(d.cfg.ReadLatency)
	d.busyUntil = done
	if d.cfg.BitErrorPerRead > 0 {
		for i := range d.rngs {
			if d.rngs[i].Bool(d.cfg.BitErrorPerRead) {
				corrupted = true
				d.errInjected.Inc()
			}
		}
	}
	if d.WornOut(row) {
		// The cells are worn out: set/reset switching no longer sticks on
		// any die.
		corrupted = true
		for range d.rngs {
			d.errInjected.Inc()
		}
	}
	return done, conflicted, corrupted
}

// WornOut reports whether a row has exceeded its endurance budget (the
// dies wear alike).
//
//lightpc:zeroalloc
func (d *Device) WornOut(row uint64) bool {
	return d.cfg.EnduranceCycles > 0 && d.wear != nil && d.wear.Get(row) > d.cfg.EnduranceCycles
}

// Write programs one granule at row on every die. The device accepts the
// command as soon as its interface frees up (accept) and completes
// programming, including the cooling window, at complete. An early-return
// memory controller may acknowledge the host at accept; a strict one waits
// for complete.
//
//lightpc:zeroalloc
func (d *Device) Write(now sim.Time, row uint64) (accept, complete sim.Time) {
	d.writes.Inc()
	// An overwrite of a still-cooling row serializes behind it. The
	// window prunes at now, the write's own clock.
	accept = d.inFlight.Next(now, sim.Max(now, d.busyUntil), row, d.cfg.WriteLatency)
	complete = accept.Add(d.cfg.WriteLatency)
	// The command interface is released once the data is transferred;
	// programming continues internally. Model the transfer as the read
	// latency floor so back-to-back writes to different rows pipeline.
	d.busyUntil = accept.Add(d.cfg.ReadLatency)
	if d.wear != nil {
		d.wear.Inc(row)
	}
	return accept, complete
}

// Drain reports when every in-flight program completes; the PSM flush port
// uses this to guarantee no early-returned write is still pending.
func (d *Device) Drain(now sim.Time) sim.Time {
	return d.inFlight.Drain(now)
}

// WearCount reports the writes recorded against row on each die (0 unless
// TrackWear).
func (d *Device) WearCount(row uint64) uint64 {
	if d.wear == nil {
		return 0
	}
	return d.wear.Get(row)
}

// MaxWear reports the highest per-row write count of any die and its row.
func (d *Device) MaxWear() (row, count uint64) {
	if d.wear == nil {
		return 0, 0
	}
	return d.wear.Max()
}

// TouchedRows reports how many distinct rows have been written, summed
// over the dies (TrackWear).
func (d *Device) TouchedRows() int {
	if d.wear == nil {
		return 0
	}
	return len(d.rngs) * d.wear.Touched()
}

// Stats reports cumulative counters summed over the dies.
func (d *Device) Stats() (reads, writes, conflicts, errors uint64) {
	n := uint64(len(d.rngs))
	return n * d.reads.Value(), n * d.writes.Value(), n * d.conflicts.Value(), d.errInjected.Value()
}
