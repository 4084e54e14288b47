package psm

import (
	"testing"

	"repro/internal/linetab"
	"repro/internal/nvdimm"
	"repro/internal/pram"
	"repro/internal/sim"
)

// The reference below is the OC-PMEM device stack as three separate
// passes: the PSM asks the DIMM whether the line's pair is cooling, then
// tries the parity pair, then reads; a PRAM program looks up the row's
// cooling window with End and records the new one with Set; a window close
// tests each dirty bit in turn. It divides with / and %, and it keeps its
// poison marks in a map. FuzzPSM runs it in lockstep with the PSM, whose
// read crosses the stack once, and requires every observable to agree.

// refDevice is one chip enable's PRAM dies.
type refDevice struct {
	cfg       pram.DeviceConfig
	rngs      []*sim.RNG
	busyUntil sim.Time
	inFlight  linetab.Flight
	wear      map[uint64]uint64

	reads, writes, conflicts, errInjected uint64
}

func newRefDevice(cfg pram.DeviceConfig, dies int) *refDevice {
	d := &refDevice{cfg: cfg, wear: map[uint64]uint64{}}
	for i := 0; i < dies; i++ {
		d.rngs = append(d.rngs, sim.NewRNG(cfg.Seed+uint64(i)))
	}
	return d
}

func (d *refDevice) busy(now sim.Time, row uint64) bool {
	end, ok := d.inFlight.End(row)
	return ok && end > now
}

func (d *refDevice) read(now sim.Time, row uint64) (done sim.Time, conflicted, corrupted bool) {
	d.reads++
	start := sim.Max(now, d.busyUntil)
	if end, ok := d.inFlight.End(row); ok && end > start {
		start = end
		conflicted = true
		d.conflicts++
	}
	done = start.Add(d.cfg.ReadLatency)
	d.busyUntil = done
	if d.cfg.BitErrorPerRead > 0 {
		for _, r := range d.rngs {
			if r.Bool(d.cfg.BitErrorPerRead) {
				corrupted = true
				d.errInjected++
			}
		}
	}
	if d.cfg.TrackWear && d.cfg.EnduranceCycles > 0 && d.wear[row] > d.cfg.EnduranceCycles {
		corrupted = true
		d.errInjected += uint64(len(d.rngs))
	}
	return done, conflicted, corrupted
}

func (d *refDevice) write(now sim.Time, row uint64) (accept, complete sim.Time) {
	d.writes++
	accept = sim.Max(now, d.busyUntil)
	if end, ok := d.inFlight.End(row); ok && end > accept {
		accept = end
	}
	complete = accept.Add(d.cfg.WriteLatency)
	d.busyUntil = accept.Add(d.cfg.ReadLatency)
	d.inFlight.Set(now, row, complete)
	if d.cfg.TrackWear {
		d.wear[row]++
	}
	return accept, complete
}

// refDIMM is a Bare-NVDIMM: nvdimm's group and parity mapping, copied.
type refDIMM struct {
	cfg     nvdimm.Config
	devices []*refDevice
	shift   uint
	slots   [2]sim.Time

	reads, writes, reconstructs, rmw, corrupt uint64
}

func newRefDIMM(cfg nvdimm.Config) *refDIMM {
	d := &refDIMM{cfg: cfg}
	per := 2
	if cfg.Layout == nvdimm.DRAMLike {
		per, d.shift = cfg.DevicesPerDIMM, 2
	}
	for first := 0; first < cfg.DevicesPerDIMM; first += per {
		dc := cfg.Device
		dc.Seed = cfg.Device.Seed*1000003 + uint64(first)
		d.devices = append(d.devices, newRefDevice(dc, per))
	}
	return d
}

func (d *refDIMM) group(line uint64) (int, uint64) {
	n := uint64(len(d.devices))
	return int((line >> d.shift) % n), (line >> d.shift) / n
}

func (d *refDIMM) parityGroup(g int) int { return (g + 1) % len(d.devices) }

func (d *refDIMM) lineBusy(now sim.Time, line uint64) bool {
	g, row := d.group(line)
	return d.devices[g].busy(now, row)
}

func (d *refDIMM) readLine(now sim.Time, line uint64) (sim.Time, bool, bool) {
	d.reads++
	g, row := d.group(line)
	done, conflicted, corrupted := d.devices[g].read(now, row)
	if corrupted {
		d.corrupt++
	}
	return done, conflicted, corrupted
}

func (d *refDIMM) readReconstructed(now sim.Time, line uint64) (done sim.Time, ok, corrupted bool) {
	if d.cfg.Layout != nvdimm.DualChannel {
		return 0, false, false
	}
	g, row := d.group(line)
	parity := d.devices[d.parityGroup(g)]
	if parity.busy(now, row) {
		return 0, false, false
	}
	d.reconstructs++
	done, _, corrupted = parity.read(now, row)
	return done, true, corrupted
}

func (d *refDIMM) writeLine(now sim.Time, line uint64) (sim.Time, sim.Time) {
	d.writes++
	g, row := d.group(line)
	dev := d.devices[g]
	start := now
	if d.cfg.Layout == nvdimm.DRAMLike {
		d.rmw++
		start, _, _ = dev.read(now, row)
	}
	best := 0
	if d.slots[1] < d.slots[0] {
		best = 1
	}
	start = sim.Max(start, d.slots[best])
	d.slots[best] = start.Add(d.cfg.Device.WriteLatency)
	return dev.write(start, row)
}

func (d *refDIMM) drain(now sim.Time) sim.Time {
	t := now
	for _, dev := range d.devices {
		t = sim.Max(t, dev.inFlight.Drain(now))
	}
	return t
}

// refBuffer is a row buffer whose drain tests every bit of the window.
type refBuffer struct {
	open          bool
	window, dirty uint64
}

// refPSM is the PSM as the reference composes it.
type refPSM struct {
	cfg     Config
	dimms   []*refDIMM
	buffers []refBuffer
	wl      *StartGap
	hold    sim.Time

	stats                   Stats
	readLat, writeAckLat    sim.LatencyHistogram
	poisoned                map[uint64]bool
	resets, retries, poison uint64
}

// newRefPSM builds the reference over the configuration New settled on.
func newRefPSM(cfg Config) *refPSM {
	r := &refPSM{cfg: cfg, buffers: make([]refBuffer, cfg.Buffers), poisoned: map[uint64]bool{}}
	for i := 0; i < cfg.DIMMs; i++ {
		dc := cfg.NVDIMM
		dc.Device.Seed = cfg.Seed*7919 + uint64(i)
		r.dimms = append(r.dimms, newRefDIMM(dc))
	}
	if cfg.WearLevelLines > 0 {
		r.wl = NewStartGap(cfg.WearLevelLines, cfg.WearLevelThreshold, cfg.Seed)
	}
	return r
}

func (r *refPSM) mapLine(line uint64) (*refDIMM, uint64) {
	if r.wl != nil {
		line = r.wl.Map(line % r.cfg.WearLevelLines)
	}
	n := uint64(len(r.dimms))
	return r.dimms[line%n], line / n
}

func (r *refPSM) buffer(line uint64) (*refBuffer, uint64, uint64) {
	w := line / r.cfg.WindowLines
	return &r.buffers[w%uint64(len(r.buffers))], w, line % r.cfg.WindowLines
}

func (r *refPSM) read(now sim.Time, line uint64) sim.Time {
	r.stats.Reads++
	start := now.Add(r.cfg.PortLatency)
	if r.poisoned[line] {
		r.stats.MCEs++
		r.readLat.Add(start.Sub(now))
		return start
	}
	if r.cfg.RowBuffer {
		if rb, w, off := r.buffer(line); rb.open && rb.window == w && rb.dirty&(1<<off) != 0 {
			r.stats.RowBufferServes++
			done := start.Add(r.cfg.RowBufferLatency)
			r.readLat.Add(done.Sub(now))
			return done
		}
	}
	d, inner := r.mapLine(line)
	start = sim.Max(start, r.hold)
	if r.cfg.XCC && d.lineBusy(start, inner) {
		if done, ok, corr := d.readReconstructed(start, inner); ok && !corr {
			r.stats.Reconstructs++
			r.readLat.Add(done.Sub(now))
			return done
		}
	}
	done, conflicted, corrupted := d.readLine(start, inner)
	if conflicted {
		r.stats.BlockedReads++
	}
	if corrupted {
		repaired := false
		if r.cfg.XCC {
			if rdone, ok, corr := d.readReconstructed(done, inner); ok && !corr {
				r.stats.ContainedErrors++
				done, repaired = rdone, true
			}
		}
		if !repaired && r.cfg.SymbolECC {
			r.stats.SymbolCorrected++
			done, repaired = done.Add(r.cfg.SymbolDecodeLatency), true
		}
		if !repaired {
			done = r.uncontained(done, line)
		}
	}
	r.readLat.Add(done.Sub(now))
	return done
}

func (r *refPSM) uncontained(now sim.Time, line uint64) sim.Time {
	switch r.cfg.MCE {
	case MCERetry:
		r.retries++
		d, inner := r.mapLine(line)
		done, _, corrupted := d.readLine(now, inner)
		if !corrupted {
			return done
		}
		r.stats.MCEs++
		r.resets++
		r.reset()
		return done
	case MCEPoison:
		r.poison++
		r.poisoned[line] = true
		r.stats.MCEs++
		return now
	default:
		r.stats.MCEs++
		r.resets++
		r.reset()
		return now
	}
}

func (r *refPSM) program(at sim.Time, line uint64) sim.Time {
	d, inner := r.mapLine(line)
	accept, complete := d.writeLine(sim.Max(at, r.hold), inner)
	r.stats.MediaWrites++
	if r.wl != nil && r.wl.RecordWrite() {
		r.stats.WearLevelMoves++
	}
	if !r.cfg.EarlyReturn {
		r.hold = complete
	}
	return accept
}

// drain returns the buffer's dirty lines, testing each bit of the window.
func (r *refPSM) drain(rb *refBuffer) []uint64 {
	var lines []uint64
	if rb.open {
		for i := uint64(0); i < r.cfg.WindowLines && i < 64; i++ {
			if rb.dirty&(1<<i) != 0 {
				lines = append(lines, rb.window*r.cfg.WindowLines+i)
			}
		}
	}
	*rb = refBuffer{}
	return lines
}

func (r *refPSM) write(now sim.Time, line uint64) sim.Time {
	r.stats.Writes++
	start := now.Add(r.cfg.PortLatency)
	if !r.cfg.RowBuffer {
		ack := r.program(start, line)
		r.writeAckLat.Add(ack.Sub(now))
		return ack
	}
	rb, w, off := r.buffer(line)
	if rb.open && rb.window == w {
		r.stats.RowBufferHits++
		rb.dirty |= 1 << off
		ack := start.Add(r.cfg.RowBufferLatency)
		r.writeAckLat.Add(ack.Sub(now))
		return ack
	}
	at := start
	for _, dl := range r.drain(rb) {
		if t := r.program(at, dl); !r.cfg.EarlyReturn {
			at = t
		}
	}
	*rb = refBuffer{open: true, window: w, dirty: 1 << off}
	ack := sim.Max(at, start).Add(r.cfg.RowBufferLatency)
	r.writeAckLat.Add(ack.Sub(now))
	return ack
}

func (r *refPSM) flush(now sim.Time) sim.Time {
	r.stats.Flushes++
	at := now.Add(r.cfg.PortLatency)
	for i := range r.buffers {
		for _, dl := range r.drain(&r.buffers[i]) {
			r.program(at, dl)
			r.stats.DrainedOnFlushes++
		}
	}
	end := at
	for _, d := range r.dimms {
		end = sim.Max(end, d.drain(at))
	}
	r.hold = end
	return end
}

func (r *refPSM) reset() {
	for i := range r.buffers {
		r.buffers[i] = refBuffer{}
	}
	r.hold = 0
}

// fuzzConfigs are the configurations FuzzPSM's first byte selects.
var fuzzConfigs = []func() Config{
	DefaultConfig,
	BaselineConfig,
	func() Config { c := DefaultConfig(); c.RowBuffer = false; return c },
	func() Config { c := DefaultConfig(); c.XCC = false; return c },
	func() Config { c := DefaultConfig(); c.EarlyReturn = false; return c },
	func() Config { c := DefaultConfig(); c.WearLevelLines = 1000; c.WearLevelThreshold = 7; return c },
	errConfig(false, MCEReset),
	errConfig(true, MCEReset),
	errConfig(false, MCERetry),
	errConfig(true, MCERetry),
	errConfig(false, MCEPoison),
	errConfig(true, MCEPoison),
	func() Config {
		c := DefaultConfig()
		c.NVDIMM.Device.TrackWear = true
		c.NVDIMM.Device.EnduranceCycles = 3
		return c
	},
}

// errConfig injects media bit errors often enough that XCC, the symbol
// code and the MCE policy all see work.
func errConfig(symbol bool, policy MCEPolicy) func() Config {
	return func() Config {
		c := DefaultConfig()
		c.NVDIMM.Device.BitErrorPerRead = 0.2
		c.SymbolECC = symbol
		c.SymbolDecodeLatency = sim.FromNanoseconds(40)
		c.MCE = policy
		return c
	}
}

// FuzzPSM drives the PSM and the reference with one op stream and compares
// every returned time and counter after each op. The first byte selects a
// configuration; every op is three bytes: kind (bits 0–2 read, write, flush
// or reset; bits 3–4 the line span; bit 5 wait for the op to complete),
// line, and a clock step that leaves rows cooling or cooled.
func FuzzPSM(f *testing.F) {
	for c := range fuzzConfigs {
		f.Add(byte(c), []byte{
			4, 0, 1, 4, 1, 1, 4, 6, 1, 0, 0, 1, // fill window 0 (lines 0 and 6 share a DIMM), read it back
			20, 1, 1, 0, 0, 1, 0, 1, 1, 0, 6, 1, // line 768 closes it: read the cooling rows
			0, 0, 200, 0, 6, 0, 12, 17, 1, 12, 18, 1, // cooled; open window 1
			8, 17, 0, 20, 2, 0, 8, 17, 40, 8, 18, 100, // close it, read within and after the window
			36, 5, 0, 48, 5, 0, 56, 29, 0, 53, 7, 9, // closed-loop wide spans
			6, 0, 0, 0, 5, 200, 12, 90, 0, 8, 90, 1, // flush, a cooled row, more programs
			13, 3, 4, 9, 3, 4, 29, 40, 250, 7, 0, 0, // resets and long steps
			4, 64, 0, 4, 80, 0, 4, 96, 0, 0, 64, 1, 0, 80, 1, 0, 96, 1,
		})
		// Windows 0, 48, 96, … share row-buffer slot 0 and their first
		// lines share DIMM 0's first pair, so each write programs another
		// row of one device and the reads find it cooling.
		f.Add(byte(c), []byte{
			20, 0, 1, 20, 1, 1, 20, 2, 1, 16, 1, 1, 16, 0, 1, 20, 3, 1,
			16, 2, 1, 20, 4, 2, 16, 3, 1, 20, 1, 2, 16, 4, 1, 16, 1, 1,
			18, 2, 3, 21, 5, 1, 16, 5, 1, 22, 0, 129, 16, 1, 1, 17, 2, 1,
		})
	}
	f.Fuzz(func(t *testing.T, sel byte, ops []byte) {
		// Every op is compared in full; a bound on the stream keeps each
		// run, and the fuzzer's minimization of long inputs, fast.
		if len(ops) > 3*256 {
			ops = ops[:3*256]
		}
		p := New(fuzzConfigs[int(sel)%len(fuzzConfigs)]())
		r := newRefPSM(p.Config())
		now := sim.Time(0)
		for i := 0; i+2 < len(ops); i += 3 {
			kind, b, step := ops[i], uint64(ops[i+1]), sim.Duration(ops[i+2])
			// Steps under 128 move the clock by under 64 ns, a quarter
			// of a program, so rows stay cooling; larger ones by 0.1 to
			// 12.8 µs, so they cool.
			if step < 128 {
				now = now.Add(step * sim.Nanosecond / 2)
			} else {
				now = now.Add((step - 127) * 100 * sim.Nanosecond)
			}
			var line uint64
			switch kind >> 3 & 3 {
			case 0: // one window
				line = b % 16
			case 1: // a few windows on every DIMM
				line = b
			case 2: // rows that collide across the row-buffer slots
				line = b * 16 * uint64(p.cfg.Buffers)
			default: // far apart
				line = b * 7919
			}
			var got, want sim.Time
			switch kind & 7 {
			case 0, 1, 2:
				got, want = p.Read(now, line), r.read(now, line)
			case 3, 4, 5:
				got, want = p.Write(now, line), r.write(now, line)
			case 6:
				got, want = p.Flush(now), r.flush(now)
			default:
				p.Reset()
				r.reset()
			}
			if got != want {
				t.Fatalf("op %d (kind %d, line %d, now %v): PSM returned %v, reference %v", i/3, kind, line, now, got, want)
			}
			if kind&32 != 0 {
				// Closed loop: the next op waits for this one.
				now = sim.Max(now, got)
			}
			comparePSM(t, i/3, p, r)
		}
	})
}

// comparePSM requires the PSM and the reference to agree on every counter
// and on both latency histograms.
func comparePSM(t *testing.T, op int, p *PSM, r *refPSM) {
	t.Helper()
	if got := p.Stats(); got != r.stats {
		t.Fatalf("op %d: Stats %+v, reference %+v", op, got, r.stats)
	}
	if resets, retries, poisons := p.MCECounters(); resets != r.resets || retries != r.retries || poisons != r.poison {
		t.Fatalf("op %d: MCE counters (%d, %d, %d), reference (%d, %d, %d)",
			op, resets, retries, poisons, r.resets, r.retries, r.poison)
	}
	if *p.ReadLatency() != r.readLat || *p.WriteAckLatency() != r.writeAckLat {
		t.Fatalf("op %d: latency histograms (reads %d, write acks %d) differ from the reference's (%d, %d)",
			op, p.ReadLatency().Count(), p.WriteAckLatency().Count(), r.readLat.Count(), r.writeAckLat.Count())
	}
	for i, d := range p.DIMMs() {
		rd := r.dimms[i]
		reads, writes, reconstructs, rmw, corrupt := d.Stats()
		if got, want := [5]uint64{reads, writes, reconstructs, rmw, corrupt},
			[5]uint64{rd.reads, rd.writes, rd.reconstructs, rd.rmw, rd.corrupt}; got != want {
			t.Fatalf("op %d: DIMM %d Stats %v, reference %v", op, i, got, want)
		}
		for g, dev := range d.Devices() {
			rv := rd.devices[g]
			n := uint64(len(rv.rngs))
			reads, writes, conflicts, errs := dev.Stats()
			if got, want := [4]uint64{reads, writes, conflicts, errs},
				[4]uint64{n * rv.reads, n * rv.writes, n * rv.conflicts, rv.errInjected}; got != want {
				t.Fatalf("op %d: DIMM %d device %d Stats %v, reference %v", op, i, g, got, want)
			}
			if dev.TouchedRows() != int(n)*len(rv.wear) {
				t.Fatalf("op %d: DIMM %d device %d touched %d rows, reference %d", op, i, g, dev.TouchedRows(), int(n)*len(rv.wear))
			}
		}
	}
}
