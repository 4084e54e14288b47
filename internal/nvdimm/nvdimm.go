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

// DIMM is one Bare-NVDIMM: its PRAM dies behind chip-enable groups, each
// group modelled once because every command reaches all of its dies.
type DIMM struct {
	cfg Config
	// devices holds one pram.Device per chip-enable group: a pair each for
	// DualChannel, the whole rank for DRAMLike.
	devices []*pram.Device
	// shift turns a cacheline index into an access-granule index: 0 for
	// the pair's 64 B granule, 2 for the rank's 256 B one.
	shift uint
	// groups divides a granule index by the chip-enable group count.
	groups sim.Divisor

	// slots tracks the write-power budget.
	slots [writeSlots]sim.Time

	reads          sim.Counter
	writes         sim.Counter
	reconstructs   sim.Counter
	rmwOps         sim.Counter
	containedCorru sim.Counter
}

// New builds a DIMM. Die i draws its error injection from seed
// Device.Seed*1000003+i, decorrelating the dies.
func New(cfg Config) *DIMM {
	if cfg.DevicesPerDIMM <= 0 {
		cfg.DevicesPerDIMM = 8
	}
	d := &DIMM{cfg: cfg}
	perGroup := cfg.DevicesPerDIMM
	switch cfg.Layout {
	case DualChannel:
		if cfg.DevicesPerDIMM%2 != 0 {
			panic("nvdimm: dual-channel layout needs an even device count")
		}
		perGroup = 2
	case DRAMLike:
		d.shift = 2
	default:
		panic(fmt.Sprintf("nvdimm: unknown layout %v", cfg.Layout))
	}
	for first := 0; first < cfg.DevicesPerDIMM; first += perGroup {
		dc := cfg.Device
		dc.Seed = cfg.Device.Seed*1000003 + uint64(first)
		d.devices = append(d.devices, pram.NewGroup(dc, perGroup))
	}
	d.groups = sim.NewDivisor(uint64(len(d.devices)))
	return d
}

// Config reports the configuration.
func (d *DIMM) Config() Config { return d.cfg }

// Groups reports the number of independent chip-enable groups.
func (d *DIMM) Groups() int { return len(d.devices) }

// Devices exposes the PRAM devices, one per chip-enable group (wear
// inspection, energy metering; their counters are die totals).
func (d *DIMM) Devices() []*pram.Device { return d.devices }

// group maps a cacheline index to its chip-enable group and the granule
// row within it: lines interleave across the pairs, while a rank serves
// four consecutive lines from one 256 B row.
//
//lightpc:zeroalloc
func (d *DIMM) group(line uint64) (g int, row uint64) {
	row, gi := d.groups.DivMod(line >> d.shift)
	return int(gi), row
}

// parityGroup is the group holding the XCC parity of group g's lines: the
// next one, wrapping.
//
//lightpc:zeroalloc
func (d *DIMM) parityGroup(g int) int {
	if g+1 == len(d.devices) {
		return 0
	}
	return g + 1
}

// Locate maps a line to the first die of the group holding its two 32 B
// halves and the first die of the group holding its XCC parity (the
// functional data store's fault-injection targets). A rank is its own next
// group, so on DRAMLike the parity shares the data's dies.
func (d *DIMM) Locate(line uint64) (dataFirst, parityFirst int) {
	g, _ := d.group(line)
	per := d.cfg.DevicesPerDIMM / len(d.devices)
	return g * per, d.parityGroup(g) * per
}

// ReadOrReconstruct is the PSM's read of a 64 B line: one split into the
// line's chip-enable group and one cooling probe of its row. When xcc is
// set and the group is mid-programming, the read is served from the parity
// pair if that pair is free and its granules come back clean
// (reconstructed); otherwise it is the blocking read, which reuses the
// probe's answer. It reports the completion time, whether the read was
// reconstructed, whether the blocking read waited for a cooling window,
// and whether it came back corrupted.
//
//lightpc:zeroalloc
func (d *DIMM) ReadOrReconstruct(now sim.Time, line uint64, xcc bool) (done sim.Time, reconstructed, conflicted, corrupted bool) {
	g, row := d.group(line)
	dev := d.devices[g]
	var cooling sim.Time
	if !dev.Quiet(now) {
		cooling = dev.Cooling(now, row)
	}
	if xcc && cooling > now {
		if done, ok, corrupted := d.reconstruct(now, g, row); ok && !corrupted {
			return done, true, false, false
		}
	}
	d.reads.Inc()
	done, conflicted, corrupted = dev.ReadCooling(now, row, cooling)
	if corrupted {
		d.containedCorru.Inc()
	}
	return done, false, conflicted, corrupted
}

// ReadLine performs a blocking 64 B read: if the target granules are inside
// a cooling window the read waits (LightPC-B behaviour). It reports the
// completion time and whether any granule came back corrupted (to be
// contained by the PSM's ECC).
//
//lightpc:zeroalloc
func (d *DIMM) ReadLine(now sim.Time, line uint64) (done sim.Time, conflicted, corrupted bool) {
	done, _, conflicted, corrupted = d.ReadOrReconstruct(now, line, false)
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
	g, row := d.group(line)
	dev := d.devices[g]
	start := now
	if d.cfg.Layout == DRAMLike {
		// Read-modify-write: sense the whole 256 B block first.
		d.rmwOps.Inc()
		start, _, _ = dev.Read(now, row)
	}
	return dev.Write(d.reserveSlot(start), row)
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
	g, row := d.group(line)
	return d.reconstruct(now, g, row)
}

// reconstruct is ReadReconstructed of group g's granule row.
//
//lightpc:zeroalloc
func (d *DIMM) reconstruct(now sim.Time, g int, row uint64) (done sim.Time, ok, corrupted bool) {
	if d.cfg.Layout != DualChannel {
		return 0, false, false
	}
	parity := d.devices[d.parityGroup(g)]
	if parity.Busy(now, row) {
		return 0, false, false
	}
	d.reconstructs.Inc()
	done, _, corrupted = parity.Read(now, row)
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
