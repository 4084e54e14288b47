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
	"fmt"

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
	// Rows is the number of addressable granule rows. Zero means "large"
	// (addressing is not bounds-checked).
	Rows uint64
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

// Device is one PRAM die behind a Bare-NVDIMM chip-enable line.
type Device struct {
	cfg DeviceConfig
	rng *sim.RNG

	// busyUntil serializes the device command interface.
	busyUntil sim.Time
	// inFlight tracks row -> completion time of in-progress program
	// operations (the cooling windows). Its watermark makes the common
	// "nothing cooling" case a single compare, and it prunes expired
	// windows on insert, so write-only phases stay bounded too.
	inFlight linetab.Flight

	wear        *linetab.Counters
	reads       sim.Counter
	writes      sim.Counter
	conflicts   sim.Counter // reads that found the target row programming
	errInjected sim.Counter
}

// NewDevice builds a device from the config.
func NewDevice(cfg DeviceConfig) *Device {
	d := &Device{
		cfg: cfg,
		rng: sim.NewRNG(cfg.Seed),
	}
	if cfg.TrackWear {
		d.wear = linetab.NewCounters()
	}
	return d
}

// Config reports the device configuration.
func (d *Device) Config() DeviceConfig { return d.cfg }

//lightpc:zeroalloc
func (d *Device) checkRow(row uint64) {
	if d.cfg.Rows != 0 && row >= d.cfg.Rows {
		panic(fmt.Sprintf("pram: row %d out of range (rows=%d)", row, d.cfg.Rows))
	}
}

// Busy reports whether the row is inside a programming/cooling window at
// time now (the read-after-write hazard the PSM's XCC resolves).
//
//lightpc:zeroalloc
func (d *Device) Busy(now sim.Time, row uint64) bool {
	return d.inFlight.Busy(now, row)
}

// Read senses one granule at row. It returns the completion time, whether
// the read collided with an in-flight program of the same row (in which
// case the returned time already includes waiting for the program to
// finish — a LightPC-B-style blocking service), and whether the data came
// back corrupted.
//
// Callers that can reconstruct from ECC (LightPC's PSM) should call Busy
// first and avoid the blocking read entirely.
//
//lightpc:zeroalloc
func (d *Device) Read(now sim.Time, row uint64) (done sim.Time, conflicted, corrupted bool) {
	d.checkRow(row)
	d.reads.Inc()
	start := sim.Max(now, d.busyUntil)
	if !d.inFlight.Quiet(start) {
		if end, ok := d.inFlight.End(row); ok && end > start {
			// Must wait for the thermal core to cool before sensing.
			start = end
			conflicted = true
			d.conflicts.Inc()
		}
	}
	done = start.Add(d.cfg.ReadLatency)
	d.busyUntil = done
	if d.cfg.BitErrorPerRead > 0 && d.rng.Bool(d.cfg.BitErrorPerRead) {
		corrupted = true
		d.errInjected.Inc()
	}
	if d.cfg.EnduranceCycles > 0 && d.wear != nil && d.wear.Get(row) > d.cfg.EnduranceCycles {
		// The cell is worn out: set/reset switching no longer sticks.
		corrupted = true
		d.errInjected.Inc()
	}
	return done, conflicted, corrupted
}

// WornOut reports whether a row has exceeded its endurance budget.
func (d *Device) WornOut(row uint64) bool {
	return d.cfg.EnduranceCycles > 0 && d.wear != nil && d.wear.Get(row) > d.cfg.EnduranceCycles
}

// Write programs one granule at row. The device accepts the command as soon
// as its interface frees up (accept) and completes programming, including
// the cooling window, at complete. An early-return memory controller may
// acknowledge the host at accept; a strict one waits for complete.
//
//lightpc:zeroalloc
func (d *Device) Write(now sim.Time, row uint64) (accept, complete sim.Time) {
	d.checkRow(row)
	d.writes.Inc()
	accept = sim.Max(now, d.busyUntil)
	if !d.inFlight.Quiet(accept) {
		if end, ok := d.inFlight.End(row); ok && end > accept {
			// Overwrite of a still-cooling row: serialize behind it.
			accept = end
		}
	}
	complete = accept.Add(d.cfg.WriteLatency)
	// The command interface is released once the data is transferred;
	// programming continues internally. Model the transfer as the read
	// latency floor so back-to-back writes to different rows pipeline.
	d.busyUntil = accept.Add(d.cfg.ReadLatency)
	d.inFlight.Set(now, row, complete)
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

// WearCount reports the writes recorded against row (0 unless TrackWear).
func (d *Device) WearCount(row uint64) uint64 {
	if d.wear == nil {
		return 0
	}
	return d.wear.Get(row)
}

// MaxWear reports the highest per-row write count and its row.
func (d *Device) MaxWear() (row, count uint64) {
	if d.wear == nil {
		return 0, 0
	}
	return d.wear.Max()
}

// TouchedRows reports how many distinct rows have been written (TrackWear).
func (d *Device) TouchedRows() int {
	if d.wear == nil {
		return 0
	}
	return d.wear.Touched()
}

// Stats reports cumulative counters.
func (d *Device) Stats() (reads, writes, conflicts, errors uint64) {
	return d.reads.Value(), d.writes.Value(), d.conflicts.Value(), d.errInjected.Value()
}
