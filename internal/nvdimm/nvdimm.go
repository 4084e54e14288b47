// Package nvdimm organizes bare-metal PRAM devices into Bare-NVDIMM
// channels (Section V-B, Figure 13).
//
// Two layouts are modeled:
//
//   - DualChannel — LightPC's design: every two PRAM devices share a chip
//     enable, so one 64 B cacheline is served by exactly one pair
//     (32 B × 2) while the remaining pairs stay free for other requests
//     (intra-DIMM parallelism).
//   - DRAMLike — the conventional rank design (conjectured for Optane
//     DIMMs): all eight devices share one chip enable, the access granule
//     becomes 256 B (32 B × 8), and sub-granule writes require a
//     read-modify-write that occupies the whole rank.
//
// The XCC parity needed by the PSM's read-reconstruction path is statically
// mapped: the parity granule for a pair lives on the next pair's devices, so
// reconstruction reads contend with (and only with) real traffic there.
package nvdimm

import (
	"fmt"

	"repro/internal/pram"
	"repro/internal/sim"
)

// Layout selects the channel organization.
type Layout int

// Layouts.
const (
	// DualChannel groups every two PRAM devices under one chip enable.
	DualChannel Layout = iota
	// DRAMLike enables all devices in the rank per access.
	DRAMLike
)

// String names the layout.
func (l Layout) String() string {
	switch l {
	case DualChannel:
		return "dual-channel"
	case DRAMLike:
		return "dram-like"
	default:
		return fmt.Sprintf("layout(%d)", int(l))
	}
}

// Config parameterizes one Bare-NVDIMM.
type Config struct {
	Layout         Layout
	DevicesPerDIMM int // conventionally 8
	Device         pram.DeviceConfig
}

// DefaultConfig is an 8-device dual-channel DIMM with Table I PRAM timing.
func DefaultConfig() Config {
	return Config{
		Layout:         DualChannel,
		DevicesPerDIMM: 8,
		Device:         pram.DefaultConfig(),
	}
}

// writeSlots is the per-DIMM concurrent-program budget: PRAM programming
// is current-limited, so only this many granule programs may be in flight
// per module. It bounds sustained write bandwidth (the reason STREAM's
// write-heavy kernels fall furthest behind DRAM in Figure 17).
const writeSlots = 2

// DIMM is one Bare-NVDIMM: a set of PRAM devices behind chip-enable groups.
type DIMM struct {
	cfg     Config
	devices []*pram.Device
	// groups divides by the chip-enable group count (pairs for
	// DualChannel, 1 for DRAMLike).
	groups sim.Divisor

	// slots tracks the write-power budget.
	slots [writeSlots]sim.Time

	reads          sim.Counter
	writes         sim.Counter
	reconstructs   sim.Counter
	rmwOps         sim.Counter
	containedCorru sim.Counter
}

// New builds a DIMM. Device seeds are derived per device for decorrelated
// error injection.
func New(cfg Config) *DIMM {
	if cfg.DevicesPerDIMM <= 0 {
		cfg.DevicesPerDIMM = 8
	}
	if cfg.Layout == DualChannel && cfg.DevicesPerDIMM%2 != 0 {
		panic("nvdimm: dual-channel layout needs an even device count")
	}
	d := &DIMM{cfg: cfg}
	for i := 0; i < cfg.DevicesPerDIMM; i++ {
		dc := cfg.Device
		dc.Seed = cfg.Device.Seed*1000003 + uint64(i)
		d.devices = append(d.devices, pram.NewDevice(dc))
	}
	switch cfg.Layout {
	case DualChannel:
		d.groups = sim.NewDivisor(uint64(cfg.DevicesPerDIMM / 2))
	case DRAMLike:
		d.groups = sim.NewDivisor(1)
	default:
		panic(fmt.Sprintf("nvdimm: unknown layout %v", cfg.Layout))
	}
	return d
}

// Config reports the configuration.
func (d *DIMM) Config() Config { return d.cfg }

// Groups reports the number of independent chip-enable groups.
func (d *DIMM) Groups() int { return int(d.groups.N()) }

// Devices exposes the underlying PRAM devices (wear inspection, energy
// metering).
func (d *DIMM) Devices() []*pram.Device { return d.devices }

// pairFor maps a cacheline index to its chip-enable pair and the device row
// within each member (DualChannel).
//
//lightpc:zeroalloc
func (d *DIMM) pairFor(line uint64) (first int, row uint64) {
	row, g := d.groups.DivMod(line)
	return int(g) * 2, row
}

// PairFor exposes the line→pair mapping (the functional data store uses it
// to locate which devices hold a line's granules and its parity).
func (d *DIMM) PairFor(line uint64) (firstDevice int, row uint64) {
	return d.pairFor(line)
}

// rankRow maps a cacheline index to the 256 B rank row (DRAMLike): four
// cachelines per 256 B block.
//
//lightpc:zeroalloc
func rankRow(line uint64) uint64 { return line / 4 }

// LineBusy reports whether serving a read of line would collide with an
// in-flight program (the PSM consults this before choosing the
// reconstruction path).
//
//lightpc:zeroalloc
func (d *DIMM) LineBusy(now sim.Time, line uint64) bool {
	switch d.cfg.Layout {
	case DualChannel:
		first, row := d.pairFor(line)
		return d.devices[first].Busy(now, row) || d.devices[first+1].Busy(now, row)
	default:
		row := rankRow(line)
		for _, dev := range d.devices {
			if dev.Busy(now, row) {
				return true
			}
		}
		return false
	}
}

// ReadLine performs a blocking 64 B read: if the target granules are inside
// a cooling window the read waits (LightPC-B behaviour). It reports the
// completion time and whether any granule came back corrupted (to be
// contained by the PSM's ECC).
//
//lightpc:zeroalloc
func (d *DIMM) ReadLine(now sim.Time, line uint64) (done sim.Time, conflicted, corrupted bool) {
	d.reads.Inc()
	switch d.cfg.Layout {
	case DualChannel:
		first, row := d.pairFor(line)
		for i := first; i < first+2; i++ {
			t, c, corr := d.devices[i].Read(now, row)
			done = sim.Max(done, t)
			conflicted = conflicted || c
			corrupted = corrupted || corr
		}
	default:
		row := rankRow(line)
		for _, dev := range d.devices {
			t, c, corr := dev.Read(now, row)
			done = sim.Max(done, t)
			conflicted = conflicted || c
			corrupted = corrupted || corr
		}
	}
	if corrupted {
		d.containedCorru.Inc()
	}
	return done, conflicted, corrupted
}

// reserveSlot claims the earliest write-power slot at or after `at` for one
// programming window.
//
//lightpc:zeroalloc
func (d *DIMM) reserveSlot(at sim.Time) sim.Time {
	best := 0
	for i := 1; i < writeSlots; i++ {
		if d.slots[i] < d.slots[best] {
			best = i
		}
	}
	start := sim.Max(at, d.slots[best])
	d.slots[best] = start.Add(d.cfg.Device.WriteLatency)
	return start
}

// WriteLine programs a 64 B line. For DualChannel the pair is programmed in
// parallel; for DRAMLike a read-modify-write of the enclosing 256 B block
// occupies the whole rank. accept is when the channel takes the data
// (early-return point); complete is when all programming (and cooling)
// finishes. Programs compete for the DIMM's write-power slots.
//
//lightpc:zeroalloc
func (d *DIMM) WriteLine(now sim.Time, line uint64) (accept, complete sim.Time) {
	d.writes.Inc()
	switch d.cfg.Layout {
	case DualChannel:
		start := d.reserveSlot(now)
		first, row := d.pairFor(line)
		for i := first; i < first+2; i++ {
			a, c := d.devices[i].Write(start, row)
			accept = sim.Max(accept, a)
			complete = sim.Max(complete, c)
		}
	default:
		// Read-modify-write: sense the whole 256 B block first, then
		// program every device.
		d.rmwOps.Inc()
		row := rankRow(line)
		readDone := now
		for _, dev := range d.devices {
			t, _, _ := dev.Read(now, row)
			readDone = sim.Max(readDone, t)
		}
		start := d.reserveSlot(readDone)
		for _, dev := range d.devices {
			a, c := dev.Write(start, row)
			accept = sim.Max(accept, a)
			complete = sim.Max(complete, c)
		}
	}
	return accept, complete
}

// ReadReconstructed serves a read of a line whose pair is mid-programming by
// XORing the statically mapped parity granules on the next pair (Section
// V-A). It reports ok=false when the parity pair is itself programming (the
// caller must fall back to the blocking read) and corrupted=true when the
// parity granules themselves came back damaged — the "two Bare-NVDIMMs
// simultaneously dead" case XCC cannot cover (Section VIII).
//
// Only meaningful for DualChannel; a DRAMLike rank has no free siblings.
//
//lightpc:zeroalloc
func (d *DIMM) ReadReconstructed(now sim.Time, line uint64) (done sim.Time, ok, corrupted bool) {
	if d.cfg.Layout != DualChannel {
		return 0, false, false
	}
	first, row := d.pairFor(line)
	parityFirst := (first + 2) % len(d.devices)
	if d.devices[parityFirst].Busy(now, row) || d.devices[parityFirst+1].Busy(now, row) {
		return 0, false, false
	}
	d.reconstructs.Inc()
	done = now
	for i := parityFirst; i < parityFirst+2; i++ {
		t, _, corr := d.devices[i].Read(now, row)
		done = sim.Max(done, t)
		corrupted = corrupted || corr
	}
	// The XOR network is fully combinational — one cycle, negligible at
	// this time base (Section V-A).
	return done, true, corrupted
}

// Drain reports when every device has no in-flight programming.
func (d *DIMM) Drain(now sim.Time) sim.Time {
	t := now
	for _, dev := range d.devices {
		t = sim.Max(t, dev.Drain(now))
	}
	return t
}

// Stats reports DIMM-level counters: line reads, line writes, reconstructed
// reads, read-modify-writes, and contained corruptions.
func (d *DIMM) Stats() (reads, writes, reconstructs, rmw, corrupt uint64) {
	return d.reads.Value(), d.writes.Value(), d.reconstructs.Value(),
		d.rmwOps.Value(), d.containedCorru.Value()
}
