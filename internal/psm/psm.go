// Package psm implements OC-PMEM's Persistent Support Module (Section V-A):
// the thin, host-side hardware layer that replaces the PMEM DIMM's firmware,
// SRAM/DRAM caches, and controllers.
//
// The PSM exposes the four ports of Figure 12a — read, write, flush, reset —
// and implements exactly the logic the paper keeps under the computing
// complex:
//
//   - per-device row buffers that aggregate writes to the open page,
//     removing overwrite conflicts with the PRAM cooling window;
//   - early-return writes: the host is acknowledged once the media accepts
//     the data, and only the flush port waits for programming to complete;
//   - XCC, a one-cycle XOR ECC that reconstructs reads targeting granules
//     that are mid-programming (the read-after-write head-of-line-blocking
//     fix) and contains media bit errors;
//   - Start-Gap wear leveling with a static randomizer;
//   - machine-check (MCE) signaling with an error containment bit when a
//     corruption cannot be repaired.
package psm

import (
	"repro/internal/nvdimm"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Config parameterizes the PSM and its attached Bare-NVDIMMs.
type Config struct {
	// DIMMs is the number of Bare-NVDIMMs (prototype: 6).
	DIMMs int
	// NVDIMM configures each DIMM.
	NVDIMM nvdimm.Config
	// PortLatency models the AXI crossbar + PSM pipeline per request.
	PortLatency sim.Duration

	// RowBuffer enables the per-device write buffers.
	RowBuffer bool
	// RowBufferLatency is the BRAM hit service time.
	RowBufferLatency sim.Duration
	// WindowLines is the number of 64 B lines one row buffer covers
	// (16 = one 1 KB device page). Must be ≤ 64.
	WindowLines uint64
	// Buffers is the number of row-buffer slots (one per PRAM device on
	// the prototype: DIMMs × DevicesPerDIMM). Zero derives that default.
	Buffers int

	// EarlyReturn acknowledges writes at media accept time; disabled, the
	// PSM behaves like a conventional controller and blocks until the
	// programming (cooling) completes — the LightPC-B baseline.
	EarlyReturn bool
	// XCC enables XOR-based read reconstruction and error containment.
	XCC bool

	// SymbolECC enables the Section VIII hybrid: when XCC cannot repair a
	// corruption (no clean sibling), a symbol-based RS decode runs instead
	// of raising an MCE — slower, but it covers multi-DIMM faults.
	SymbolECC bool
	// SymbolDecodeLatency is the RS en/decryption cost (the reason the
	// paper keeps it off the common read path).
	SymbolDecodeLatency sim.Duration

	// MCE selects the machine-check policy for uncontained corruptions.
	MCE MCEPolicy

	// WearLevelLines enables Start-Gap over that many logical lines
	// (0 disables; the full-speed experiments disable it because the gap
	// arithmetic is not on the critical timing path).
	WearLevelLines uint64
	// WearLevelThreshold is the writes-per-gap-move (default 100).
	WearLevelThreshold uint64
	// Seed drives the static randomizer and device error streams.
	Seed uint64
}

// DefaultConfig mirrors the prototype: 6 dual-channel Bare-NVDIMMs, 4 KB
// row-buffer windows, early-return writes, and XCC enabled.
func DefaultConfig() Config {
	return Config{
		DIMMs:            6,
		NVDIMM:           nvdimm.DefaultConfig(),
		PortLatency:      sim.FromNanoseconds(15),
		RowBuffer:        true,
		RowBufferLatency: sim.FromNanoseconds(25),
		WindowLines:      16,
		EarlyReturn:      true,
		XCC:              true,
		Seed:             1,
	}
}

// BaselineConfig is LightPC-B (Section VI): the same media handled "just
// like what conventional memory controllers do" — the DRAM-like rank layout
// of Figure 13a (256 B access granule, sub-granule writes need a
// read-modify-write that occupies all eight devices), per-channel in-order
// command queues with no early-return (a PRAM program holds its channel
// until the thermal core cools, so every later request — reads included —
// waits: the head-of-line blocking Figure 16 quantifies), no XCC
// reconstruction, and no per-device row buffers.
func BaselineConfig() Config {
	cfg := DefaultConfig()
	cfg.NVDIMM.Layout = nvdimm.DRAMLike
	cfg.RowBuffer = false
	cfg.EarlyReturn = false
	cfg.XCC = false
	return cfg
}

// Stats aggregates the PSM's observable counters.
type Stats struct {
	Reads            uint64
	Writes           uint64
	RowBufferHits    uint64 // writes absorbed by an open window
	RowBufferServes  uint64 // reads served from a dirty window
	Reconstructs     uint64 // reads served via XCC instead of blocking
	BlockedReads     uint64 // reads that waited on a cooling window
	MediaWrites      uint64 // programs issued to the PRAM
	MCEs             uint64 // uncontained corruption machine checks
	ContainedErrors  uint64 // corruptions repaired by XCC
	SymbolCorrected  uint64 // corruptions repaired by the symbol code
	WearLevelMoves   uint64
	Flushes          uint64
	DrainedOnFlushes uint64 // dirty lines written back by flush
}

// PSM is the persistent support module plus its Bare-NVDIMM channels.
type PSM struct {
	cfg   Config
	dimms []*nvdimm.DIMM

	buffers []rowBuffer
	wl      *StartGap

	// The address splits, by geometry fixed at New: lines per row-buffer
	// window, row-buffer slots, DIMMs, and (when wl is set) wear-levelled
	// lines.
	window, slots, interleave, wearLines sim.Divisor

	stats       Stats
	readLat     *sim.LatencyHistogram
	writeAckLat *sim.LatencyHistogram

	// hold serializes the conventional controller's single in-order
	// command queue at the memory port (only used when EarlyReturn is
	// off): the queue head owns the port until its request fully
	// completes.
	hold sim.Time

	mce mceState

	// drainScratch is the reused window-drain buffer, one window's lines
	// (a drain never holds more): window closes and flushes are the write
	// hot path.
	drainScratch []uint64

	// scrubLines counts the physical lines RemixWearSeed's data scrubs
	// have visited; ScrubLines reads it. It stays out of Stats, which
	// callers encode whole (the repository benchmark's digest does).
	scrubLines uint64

	tr     *obs.Tracer
	trLane obs.Lane
}

// New builds a PSM.
func New(cfg Config) *PSM {
	if cfg.DIMMs <= 0 {
		cfg.DIMMs = 6
	}
	if cfg.WindowLines == 0 || cfg.WindowLines > 64 {
		cfg.WindowLines = 64
	}
	if cfg.NVDIMM.DevicesPerDIMM <= 0 {
		cfg.NVDIMM.DevicesPerDIMM = 8
	}
	if cfg.Buffers <= 0 {
		cfg.Buffers = cfg.DIMMs * cfg.NVDIMM.DevicesPerDIMM
	}
	p := &PSM{
		cfg:          cfg,
		buffers:      make([]rowBuffer, cfg.Buffers),
		window:       sim.NewDivisor(cfg.WindowLines),
		slots:        sim.NewDivisor(uint64(cfg.Buffers)),
		interleave:   sim.NewDivisor(uint64(cfg.DIMMs)),
		readLat:      new(sim.LatencyHistogram),
		writeAckLat:  new(sim.LatencyHistogram),
		drainScratch: make([]uint64, 0, cfg.WindowLines),
	}
	for i := 0; i < cfg.DIMMs; i++ {
		dc := cfg.NVDIMM
		dc.Device.Seed = cfg.Seed*7919 + uint64(i)
		p.dimms = append(p.dimms, nvdimm.New(dc))
	}
	if cfg.WearLevelLines > 0 {
		p.wl = NewStartGap(cfg.WearLevelLines, cfg.WearLevelThreshold, cfg.Seed)
		p.wearLines = sim.NewDivisor(cfg.WearLevelLines)
	}
	return p
}

// Config reports the configuration.
func (p *PSM) Config() Config { return p.cfg }

// DIMMs exposes the Bare-NVDIMMs (wear inspection, tests).
func (p *PSM) DIMMs() []*nvdimm.DIMM { return p.dimms }

// WearLeveler exposes the Start-Gap state (nil when disabled).
func (p *PSM) WearLeveler() *StartGap { return p.wl }

// mapLine applies wear leveling and splits a physical line into its DIMM and
// inner line.
//
//lightpc:zeroalloc
func (p *PSM) mapLine(line uint64) (d *nvdimm.DIMM, dimmIdx int, inner uint64) {
	pl := line
	if p.wl != nil {
		pl = p.wl.Map(p.wearLines.Mod(line))
	}
	inner, idx := p.interleave.DivMod(pl)
	return p.dimms[idx], int(idx), inner
}

// bufferFor splits a line into its row-buffer window and its offset in the
// window, and selects the window's row-buffer slot.
//
//lightpc:zeroalloc
func (p *PSM) bufferFor(line uint64) (rb *rowBuffer, window, off uint64) {
	window, off = p.window.DivMod(line)
	return &p.buffers[p.slots.Mod(window)], window, off
}

// Read services a 64 B cacheline read and returns its completion time.
// Its simulated time is a sum of separate terms: the port latency, then
// either the row-buffer serve or the wait behind a programming write's
// hold followed by the XCC reconstruct or the media read.
//
//lightpc:zeroalloc
func (p *PSM) Read(now sim.Time, line uint64) sim.Time {
	p.stats.Reads++
	port := now.Add(p.cfg.PortLatency)

	if p.Poisoned(line) {
		return p.readPoisoned(now, port, line)
	}

	if p.cfg.RowBuffer {
		if rb, w, off := p.bufferFor(line); rb.isDirty(w, off) {
			p.stats.RowBufferServes++
			done := port.Add(p.cfg.RowBufferLatency)
			p.readLat.Add(done.Sub(now))
			return done
		}
	}

	d, _, inner := p.mapLine(line)
	issue := sim.Max(port, p.hold)
	done, reconstructed, conflicted, corrupted := d.ReadOrReconstruct(issue, inner, p.cfg.XCC)
	if reconstructed {
		p.stats.Reconstructs++
	} else if conflicted {
		p.stats.BlockedReads++
	}
	if corrupted {
		done = p.contain(d, done, inner, line)
	}
	// Reads have deterministic latency and pipeline through the in-order
	// queue; only a program (cooling) holds the port, so reads do not
	// extend the hold.
	p.readLat.Add(done.Sub(now))
	return done
}

// readPoisoned serves a read of a poisoned line: it faults again until
// software repairs it (MCEPoison policy).
//
//lightpc:zeroalloc
func (p *PSM) readPoisoned(now, port sim.Time, line uint64) sim.Time {
	p.raiseMCE(port, line)
	p.readLat.Add(port.Sub(now))
	return port
}

// contain handles a media read of line (inner on DIMM d) that came back
// corrupted at done: XCC regenerates it from the parity pair, the symbol
// code covers what XCC cannot, and anything left goes to the MCE policy.
// It returns the read's completion time.
//
//lightpc:zeroalloc
func (p *PSM) contain(d *nvdimm.DIMM, done sim.Time, inner, line uint64) sim.Time {
	if p.cfg.XCC {
		// Regenerate from the parity pair — unless the parity granules
		// are damaged too (two DIMMs dead: beyond XCC).
		if rdone, ok, corr := d.ReadReconstructed(done, inner); ok && !corr {
			p.stats.ContainedErrors++
			return rdone
		}
	}
	if p.cfg.SymbolECC {
		// Section VIII hybrid: the symbol-based code covers what XCC
		// cannot, at its en/decryption cost.
		p.stats.SymbolCorrected++
		return done.Add(p.cfg.SymbolDecodeLatency)
	}
	//lint:allow zeroalloc the uncontained-corruption path is cold by construction
	done, _ = p.handleUncontained(done, line)
	return done
}

// raiseMCE counts and traces a machine check; the configured MCE policy
// has already decided what happens to the line.
//
//lightpc:zeroalloc
func (p *PSM) raiseMCE(now sim.Time, line uint64) {
	p.stats.MCEs++
	p.tr.InstantArg(now, p.trLane, "psm", "mce", "line", int64(line))
}

// program issues one media write for a line at time at, honoring the
// early-return policy, and returns when the PSM may proceed.
//
//lightpc:zeroalloc
func (p *PSM) program(at sim.Time, line uint64) sim.Time {
	d, _, inner := p.mapLine(line)
	at = sim.Max(at, p.hold)
	accept, complete := d.WriteLine(at, inner)
	p.stats.MediaWrites++
	if p.wl != nil && p.wl.RecordWrite() {
		p.stats.WearLevelMoves++
	}
	if !p.cfg.EarlyReturn {
		// Conventional in-order queue: the write owns the channel until
		// programming (and cooling) completes, so every later request —
		// reads included — queues behind it. The write itself is still
		// posted (acknowledged at accept); the damage lands on subsequent
		// traffic, which is the head-of-line blocking Figure 16
		// quantifies.
		p.hold = complete
	}
	return accept
}

// Write services a 64 B cacheline write and returns the time the host is
// acknowledged.
//
//lightpc:zeroalloc
func (p *PSM) Write(now sim.Time, line uint64) sim.Time {
	p.stats.Writes++
	start := now.Add(p.cfg.PortLatency)

	if !p.cfg.RowBuffer {
		ack := p.program(start, line)
		p.writeAckLat.Add(ack.Sub(now))
		return ack
	}

	rb, w, off := p.bufferFor(line)
	if rb.hit(w) {
		p.stats.RowBufferHits++
		rb.markDirty(off)
		ack := start.Add(p.cfg.RowBufferLatency)
		p.writeAckLat.Add(ack.Sub(now))
		return ack
	}

	// Window miss: close the occupied window (programming every dirty
	// line), then open the new one.
	at := start
	p.drainScratch = rb.drainInto(p.cfg.WindowLines, p.drainScratch[:0])
	for _, dl := range p.drainScratch {
		t := p.program(at, dl)
		if !p.cfg.EarlyReturn {
			at = t
		}
	}
	rb.openWindow(w)
	rb.markDirty(off)
	ack := sim.Max(at, start).Add(p.cfg.RowBufferLatency)
	p.writeAckLat.Add(ack.Sub(now))
	return ack
}

// Flush implements the flush port: every row buffer drains to the media and
// the PSM blocks new requests until all pending programs complete — the
// memory-synchronization guarantee SnG relies on ("no early-return request
// on the row buffer", Section V-A).
func (p *PSM) Flush(now sim.Time) sim.Time {
	p.stats.Flushes++
	at := now.Add(p.cfg.PortLatency)
	var drained int64
	for i := range p.buffers {
		p.drainScratch = p.buffers[i].drainInto(p.cfg.WindowLines, p.drainScratch[:0])
		for _, dl := range p.drainScratch {
			p.program(at, dl)
			p.stats.DrainedOnFlushes++
			drained++
		}
	}
	end := at
	for _, d := range p.dimms {
		end = sim.Max(end, d.Drain(at))
	}
	p.hold = end
	p.tr.SpanArg(now, end, p.trLane, "psm", "flush", "drained_lines", drained)
	return end
}

// Reset implements the reset port: wipe buffered state for a cold boot
// (used by the default MCE policy, Section V-A).
func (p *PSM) Reset() {
	for i := range p.buffers {
		p.buffers[i] = rowBuffer{}
	}
	p.hold = 0
}

// RemixWearSeed rotates the Start-Gap randomizer seed and performs the
// data scrub the remap requires: every physical line is read under the old
// mapping and rewritten under the new one, pipelined across the chip-
// enable pairs. It returns the scrub completion time (a background
// maintenance epoch, not a stop-the-world event). No-op when wear leveling
// is off.
func (p *PSM) RemixWearSeed(now sim.Time, seed uint64) sim.Time {
	if p.wl == nil {
		return now
	}
	p.wl.RemixSeed(seed)
	// Scrub cost: one sense + one program per physical line, overlapped
	// across every pair in the array.
	pairs := len(p.dimms) * p.dimms[0].Groups()
	per := p.cfg.NVDIMM.Device.ReadLatency + p.cfg.NVDIMM.Device.WriteLatency
	total := sim.Duration(p.wl.PhysicalLines()) * per / sim.Duration(pairs)
	p.scrubLines += p.wl.PhysicalLines()
	end := now.Add(total)
	p.tr.Span(now, end, p.trLane, "psm", "wear-scrub")
	return end
}

// Stats returns a copy of the counters.
func (p *PSM) Stats() Stats { return p.stats }

// ScrubLines reports how many physical lines wear-seed scrubs have
// visited.
func (p *PSM) ScrubLines() uint64 { return p.scrubLines }

// ReadLatency exposes the read-latency histogram (Fig 16 data).
func (p *PSM) ReadLatency() *sim.LatencyHistogram { return p.readLat }

// WriteAckLatency exposes the write-acknowledgement histogram.
func (p *PSM) WriteAckLatency() *sim.LatencyHistogram { return p.writeAckLat }
