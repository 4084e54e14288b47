package nvdimm

import (
	"testing"
	"testing/quick"

	"repro/internal/pram"
	"repro/internal/sim"
)

func dual() *DIMM { return New(DefaultConfig()) }

func dramLike() *DIMM {
	cfg := DefaultConfig()
	cfg.Layout = DRAMLike
	return New(cfg)
}

func TestLayoutString(t *testing.T) {
	if DualChannel.String() != "dual-channel" || DRAMLike.String() != "dram-like" {
		t.Fatal("layout names wrong")
	}
	if Layout(7).String() == "" {
		t.Fatal("unknown layout name empty")
	}
}

// Each chip-enable group is one pram.Device: a pair for DualChannel, the
// whole rank for DRAMLike.
func TestOneDevicePerGroup(t *testing.T) {
	for _, tc := range []struct {
		d      *DIMM
		groups int
	}{{dual(), 4}, {dramLike(), 1}} {
		if got := len(tc.d.Devices()); got != tc.d.Groups() || got != tc.groups {
			t.Errorf("%v: %d devices, %d groups, want %d", tc.d.Config().Layout, got, tc.d.Groups(), tc.groups)
		}
	}
}

// The XCC parity of a pair's lines lives on the next pair, wrapping.
func TestLocateParityOnNextPair(t *testing.T) {
	d := dual()
	for line := uint64(0); line < 8; line++ {
		data, parity := d.Locate(line)
		if want := int(line%4) * 2; data != want || parity != (want+2)%8 {
			t.Fatalf("Locate(%d) = (%d, %d), want (%d, %d)", line, data, parity, want, (want+2)%8)
		}
	}
}

func TestDualChannelReadLatency(t *testing.T) {
	d := dual()
	done, conflicted, corrupted := d.ReadLine(0, 0)
	if conflicted || corrupted {
		t.Fatal("cold read should be clean")
	}
	if got := done.Sub(0); got != pram.DefaultConfig().ReadLatency {
		t.Fatalf("dual-channel read latency = %v", got)
	}
}

func TestDualChannelGroupParallelism(t *testing.T) {
	d := dual()
	// Lines 0..3 map to the four pairs — all serviced concurrently.
	var ends []sim.Time
	for line := uint64(0); line < 4; line++ {
		done, _, _ := d.ReadLine(0, line)
		ends = append(ends, done)
	}
	for _, e := range ends {
		if e != ends[0] {
			t.Fatalf("pairs serialized: %v", ends)
		}
	}
	// Line 4 reuses pair 0 and must serialize behind line 0.
	done, _, _ := d.ReadLine(0, 4)
	if !done.After(ends[0]) {
		t.Fatal("same-pair reads must serialize")
	}
}

func TestDRAMLikeRankOccupancy(t *testing.T) {
	d := dramLike()
	// A single 64 B read occupies every device: a second read of a
	// different 256 B block cannot overlap.
	d1, _, _ := d.ReadLine(0, 0)
	d2, _, _ := d.ReadLine(0, 8) // different rank row
	if !d2.After(d1) {
		t.Fatalf("rank reads overlapped: %v vs %v", d1, d2)
	}
}

func TestDRAMLikeWriteIsRMW(t *testing.T) {
	bare := dual()
	rank := dramLike()
	_, dualDone := bare.WriteLine(0, 0)
	_, rankDone := rank.WriteLine(0, 0)
	if !rankDone.After(dualDone) {
		t.Fatalf("DRAM-like write (%v) should exceed dual-channel (%v) via RMW",
			rankDone.Sub(0), dualDone.Sub(0))
	}
	_, _, _, rmw, _ := rank.Stats()
	if rmw != 1 {
		t.Fatalf("rmw count = %d", rmw)
	}
}

func TestLineBusyAfterWrite(t *testing.T) {
	// The PSM's read sees the line busy (and reconstructs it from the
	// parity pair) exactly inside the cooling window.
	busy := func(now sim.Time, line uint64) bool {
		d := dual()
		d.WriteLine(0, 0)
		_, reconstructed, _, _ := d.ReadOrReconstruct(now, line, true)
		return reconstructed
	}
	_, complete := dual().WriteLine(0, 0)
	if !busy(complete.Add(-sim.Nanosecond), 0) {
		t.Fatal("line should be busy during cooling window")
	}
	if busy(complete, 0) {
		t.Fatal("line should be free after cooling window")
	}
	// Other pairs unaffected.
	if busy(0, 1) {
		t.Fatal("other pair wrongly busy")
	}
}

func TestReadOrReconstructBlocksWithoutXCC(t *testing.T) {
	d := dual()
	_, complete := d.WriteLine(0, 0)
	done, reconstructed, conflicted, _ := d.ReadOrReconstruct(sim.Time(sim.Nanosecond), 0, false)
	if reconstructed || !conflicted || done.Before(complete) {
		t.Fatalf("read without XCC: done %v reconstructed %v conflicted %v, want a blocking read after %v",
			done, reconstructed, conflicted, complete)
	}
	reads, _, rec, _, _ := d.Stats()
	if reads != 1 || rec != 0 {
		t.Fatalf("reads = %d, reconstructs = %d", reads, rec)
	}
}

func TestReadReconstructed(t *testing.T) {
	d := dual()
	_, complete := d.WriteLine(0, 0)
	mid := sim.Time(0).Add(pram.DefaultConfig().ReadLatency * 2)
	if !mid.Before(complete) {
		t.Fatal("test setup: mid must be inside cooling window")
	}
	done, ok, corr := d.ReadReconstructed(mid, 0)
	if !ok || corr {
		t.Fatal("reconstruction should succeed when parity pair is free")
	}
	if !done.Before(complete) {
		t.Fatalf("reconstructed read (%v) should beat write completion (%v)", done, complete)
	}
	_, _, rec, _, _ := d.Stats()
	if rec != 1 {
		t.Fatalf("reconstructs = %d", rec)
	}
}

func TestReadReconstructedFailsWhenParityBusy(t *testing.T) {
	d := dual()
	d.WriteLine(0, 0) // pair 0 busy
	d.WriteLine(0, 1) // pair 1 (parity pair for line 0) busy too
	_, ok, _ := d.ReadReconstructed(sim.Time(sim.Nanosecond), 0)
	if ok {
		t.Fatal("reconstruction must fail when parity pair is also programming")
	}
}

func TestReadReconstructedNotOnDRAMLike(t *testing.T) {
	d := dramLike()
	if _, ok, _ := d.ReadReconstructed(0, 0); ok {
		t.Fatal("DRAM-like layout cannot reconstruct")
	}
}

func TestDrainCoversWrites(t *testing.T) {
	d := dual()
	var latest sim.Time
	for line := uint64(0); line < 8; line++ {
		_, c := d.WriteLine(0, line)
		latest = sim.Max(latest, c)
	}
	if got := d.Drain(0); got != latest {
		t.Fatalf("Drain = %v, want %v", got, latest)
	}
}

func TestOddDeviceCountPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DevicesPerDIMM = 7
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(cfg)
}

func TestCorruptionContained(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Device.BitErrorPerRead = 1.0
	d := New(cfg)
	_, _, corrupted := d.ReadLine(0, 0)
	if !corrupted {
		t.Fatal("corruption not reported")
	}
	_, _, _, _, contained := d.Stats()
	if contained != 1 {
		t.Fatalf("contained = %d", contained)
	}
}

// Property: dual-channel read of a quiet line always completes in exactly
// the device read latency from the later of (now, pair availability).
func TestDualReadNeverBeforeNow(t *testing.T) {
	f := func(lines []uint16) bool {
		d := dual()
		now := sim.Time(0)
		for _, l := range lines {
			done, _, _ := d.ReadLine(now, uint64(l))
			if done.Before(now.Add(pram.DefaultConfig().ReadLatency)) {
				return false
			}
			now = now.Add(sim.Nanosecond)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
