package psm

import (
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestReadColdLatencyDeterministic(t *testing.T) {
	p := New(DefaultConfig())
	now := sim.Time(0)
	var prev sim.Duration
	for i := 0; i < 50; i++ {
		// Distinct windows so nothing is buffered, distinct lines so no
		// device contention carries over after completing each read.
		done := p.Read(now, uint64(i*1000))
		lat := done.Sub(now)
		if i > 0 && lat != prev {
			t.Fatalf("cold read latency varied: %v vs %v", lat, prev)
		}
		prev = lat
		now = done
	}
}

func TestRowBufferAbsorbsWrites(t *testing.T) {
	cfg := DefaultConfig()
	p := New(cfg)
	now := sim.Time(0)
	now = p.Write(now, 0) // opens window 0
	for i := uint64(1); i < 10; i++ {
		ack := p.Write(now, i)
		if got := ack.Sub(now); got != cfg.PortLatency+cfg.RowBufferLatency {
			t.Fatalf("buffered write latency = %v", got)
		}
		now = ack
	}
	s := p.Stats()
	if s.RowBufferHits != 9 {
		t.Fatalf("RowBufferHits = %d", s.RowBufferHits)
	}
	if s.MediaWrites != 0 {
		t.Fatalf("MediaWrites = %d before any window close", s.MediaWrites)
	}
}

func TestRowBufferServesDirtyReads(t *testing.T) {
	cfg := DefaultConfig()
	p := New(cfg)
	ack := p.Write(0, 5)
	done := p.Read(ack, 5)
	if got := done.Sub(ack); got != cfg.PortLatency+cfg.RowBufferLatency {
		t.Fatalf("dirty-read latency = %v", got)
	}
	if p.Stats().RowBufferServes != 1 {
		t.Fatal("dirty read not served from buffer")
	}
}

func TestWindowCloseProgramsDirtyLines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Buffers = 1 // force collisions
	p := New(cfg)
	now := p.Write(0, 0)
	now = p.Write(now, 1)
	now = p.Write(now, 2)
	// A write to another window evicts window 0: three programs.
	p.Write(now, 64)
	s := p.Stats()
	if s.MediaWrites != 3 {
		t.Fatalf("MediaWrites = %d, want 3", s.MediaWrites)
	}
}

func TestEarlyReturnFreesThePair(t *testing.T) {
	// Without early-return, a second write to the same chip-enable pair
	// queues behind the first write's full programming time; with it, the
	// pair frees at the transfer slot.
	run := func(cfg Config) sim.Duration {
		cfg.RowBuffer = false
		p := New(cfg)
		ack := p.Write(0, 0) // dimm 0, pair 0
		// Line 24 maps to dimm 0 (24%6==0), inner 4, pair 0 (4%4==0).
		ack2 := p.Write(ack, 24)
		return ack2.Sub(ack)
	}
	e, b := run(DefaultConfig()), run(BaselineConfig())
	if b <= e {
		t.Fatalf("blocking same-pair write (%v) should exceed early-return (%v)", b, e)
	}
}

func TestXCCReconstructionBeatsBlocking(t *testing.T) {
	run := func(cfg Config) sim.Duration {
		cfg.Buffers = 1
		p := New(cfg)
		now := sim.Time(0)
		for i := uint64(0); i < 8; i++ {
			now = p.Write(now, i)
		}
		now = p.Write(now, 64) // close window 0 -> lines 0..7 programming
		start := now
		done := p.Read(now, 3) // read-after-write on cooling line
		return done.Sub(start)
	}
	lightpc := run(DefaultConfig())
	baseline := run(BaselineConfig())
	if baseline <= lightpc {
		t.Fatalf("baseline RAW read (%v) should exceed LightPC (%v)", baseline, lightpc)
	}
}

func TestFlushDrainsEverything(t *testing.T) {
	cfg := DefaultConfig()
	p := New(cfg)
	now := sim.Time(0)
	for i := uint64(0); i < 100; i++ {
		now = p.Write(now, i*7)
	}
	end := p.Flush(now)
	if !end.After(now) {
		t.Fatal("flush with dirty state must take time")
	}
	s := p.Stats()
	if s.DrainedOnFlushes == 0 {
		t.Fatal("flush drained nothing")
	}
	// After a flush, no row buffer serves reads and a second flush is
	// near-instant (only port latency).
	end2 := p.Flush(end)
	if end2.Sub(end) != cfg.PortLatency {
		t.Fatalf("idle flush took %v", end2.Sub(end))
	}
}

func TestFlushMakesSubsequentReadsClean(t *testing.T) {
	p := New(DefaultConfig())
	now := p.Write(0, 0)
	end := p.Flush(now)
	p.Read(end, 0)
	s := p.Stats()
	if s.BlockedReads != 0 || s.Reconstructs != 0 {
		t.Fatalf("post-flush read saw conflicts: %+v", s)
	}
}

func TestMCEOnUncontainedCorruption(t *testing.T) {
	cfg := BaselineConfig() // no XCC: corruption cannot be contained
	cfg.NVDIMM.Device.BitErrorPerRead = 1.0
	p := New(cfg)
	tr := obs.NewTracer()
	p.SetTracer(tr)
	p.Read(0, 42)
	if p.Stats().MCEs != 1 {
		t.Fatal("MCE counter not bumped")
	}
	var lines []int64
	for _, ev := range tr.Events() {
		if ev.Name == "mce" {
			lines = append(lines, ev.Arg)
		}
	}
	if len(lines) != 1 || lines[0] != 42 {
		t.Fatalf("MCE instants carry lines %v, want [42]", lines)
	}
}

func TestXCCContainsCorruption(t *testing.T) {
	// Moderate error rate: the data read corrupts sometimes, the parity
	// pair is usually clean, so XCC contains most faults.
	cfg := DefaultConfig()
	cfg.NVDIMM.Device.BitErrorPerRead = 0.2
	cfg.Seed = 7
	p := New(cfg)
	now := sim.Time(0)
	for i := uint64(0); i < 500; i++ {
		now = p.Read(now, i*1000)
	}
	s := p.Stats()
	if s.ContainedErrors == 0 {
		t.Fatalf("XCC never contained anything: %+v", s)
	}
	if s.MCEs >= s.ContainedErrors {
		t.Fatalf("containment weaker than escalation: mces=%d contained=%d",
			s.MCEs, s.ContainedErrors)
	}
}

func TestXCCFailsWhenParityAlsoCorrupt(t *testing.T) {
	// At a 100% error rate the parity granules are damaged too — the
	// "two DIMMs dead" case XCC cannot cover: the MCE path fires.
	cfg := DefaultConfig()
	cfg.NVDIMM.Device.BitErrorPerRead = 1.0
	p := New(cfg)
	p.Read(0, 42)
	if mces := p.Stats().MCEs; mces != 1 {
		t.Fatalf("expected escalation past XCC, mces=%d", mces)
	}
}

func TestWearLevelingCountsMoves(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RowBuffer = false
	cfg.WearLevelLines = 1024
	cfg.WearLevelThreshold = 10
	p := New(cfg)
	now := sim.Time(0)
	for i := 0; i < 100; i++ {
		now = p.Write(now, uint64(i))
	}
	s := p.Stats()
	if s.WearLevelMoves != 10 {
		t.Fatalf("WearLevelMoves = %d, want 10", s.WearLevelMoves)
	}
}

func TestWearLevelingSpreadsHotWrites(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RowBuffer = false
	cfg.WearLevelLines = 256
	cfg.WearLevelThreshold = 1
	cfg.NVDIMM.Device.TrackWear = true
	p := New(cfg)
	now := sim.Time(0)
	for i := 0; i < 2000; i++ {
		now = p.Write(now, 13) // one pathologically hot line
	}
	// Without wear leveling all 2000 writes hit one row of one pair; with
	// Start-Gap they spread over many rows/devices.
	maxWear := uint64(0)
	for _, d := range p.DIMMs() {
		for _, dev := range d.Devices() {
			if _, c := dev.MaxWear(); c > maxWear {
				maxWear = c
			}
		}
	}
	if maxWear > 1200 {
		t.Fatalf("hot line not spread: max per-row wear = %d of 2000", maxWear)
	}
}

func TestResetClearsBuffers(t *testing.T) {
	p := New(DefaultConfig())
	p.Write(0, 0)
	p.Reset()
	// After reset the line is no longer buffered: the read goes to media.
	p.Read(sim.Time(sim.Microsecond), 0)
	if p.Stats().RowBufferServes != 0 {
		t.Fatal("reset did not clear row buffers")
	}
}

func TestStatsCountReadsWrites(t *testing.T) {
	p := New(DefaultConfig())
	now := p.Write(0, 0)
	p.Read(now, 100000)
	s := p.Stats()
	if s.Reads != 1 || s.Writes != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if p.ReadLatency().Count() != 1 || p.WriteAckLatency().Count() != 1 {
		t.Fatal("latency histograms not fed")
	}
}

// Property: acknowledgement and completion times never move backwards.
func TestMonotonicServiceProperty(t *testing.T) {
	f := func(ops []uint16, early bool) bool {
		cfg := DefaultConfig()
		cfg.EarlyReturn = early
		p := New(cfg)
		now := sim.Time(0)
		for _, o := range ops {
			line := uint64(o % 512)
			var done sim.Time
			if o%3 == 0 {
				done = p.Read(now, line)
			} else {
				done = p.Write(now, line)
			}
			if done.Before(now) {
				return false
			}
			now = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWearLevelingDefersWearOut(t *testing.T) {
	// End-of-life behaviour: a hot line crosses the endurance budget far
	// sooner without Start-Gap. With leveling, the same write volume
	// spreads and the line still reads clean.
	run := func(wearLevel bool) (mces uint64) {
		cfg := DefaultConfig()
		cfg.RowBuffer = false
		cfg.XCC = false // count raw wear-out faults
		cfg.NVDIMM.Device.TrackWear = true
		cfg.NVDIMM.Device.EnduranceCycles = 600
		if wearLevel {
			cfg.WearLevelLines = 256
			cfg.WearLevelThreshold = 1
		}
		p := New(cfg)
		now := sim.Time(0)
		for i := 0; i < 2000; i++ {
			now = p.Write(now, 13)
		}
		now = p.Read(now, 13)
		return p.Stats().MCEs
	}
	if got := run(false); got == 0 {
		t.Fatal("unleveled hot line should be worn out after 2000 writes at 600 endurance")
	}
	if got := run(true); got != 0 {
		t.Fatalf("leveled hot line wore out anyway (%d MCEs)", got)
	}
}
