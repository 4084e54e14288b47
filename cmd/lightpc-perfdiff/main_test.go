package main

import (
	"io"
	"slices"
	"strings"
	"testing"
)

// TestCompareZeroAllocPins checks which baseline benches break a 0-alloc
// pin: one that now allocates and one that vanished from the new snapshot
// do; a vanished bench that already allocated and a pinned one that still
// holds at 0 do not.
func TestCompareZeroAllocPins(t *testing.T) {
	oldSeed := seed{Benches: []benchLine{
		{Name: "BenchmarkHeld", NsPerOp: 100},
		{Name: "BenchmarkNowAllocates", NsPerOp: 100},
		{Name: "BenchmarkPinnedGone", NsPerOp: 100},
		{Name: "BenchmarkAllocatingGone", NsPerOp: 100, AllocsPerOp: 3},
	}}
	newSeed := seed{Benches: []benchLine{
		{Name: "BenchmarkHeld", NsPerOp: 100},
		{Name: "BenchmarkNowAllocates", NsPerOp: 100, AllocsPerOp: 2},
	}}
	_, broken := compare(io.Discard, oldSeed, newSeed, 10)
	want := []string{
		"BenchmarkNowAllocates: allocs/op 0 -> 2",
		"BenchmarkPinnedGone: allocs/op 0 -> gone from the new snapshot",
	}
	if !slices.Equal(broken, want) {
		t.Errorf("broken 0-alloc pins = %q, want %q", broken, want)
	}
}

// TestSuitesFullFidelityLine checks that the full-fidelity wall-clock line
// appears when both snapshots recorded it, and only then: a snapshot from
// before the field existed decodes with zeros.
func TestSuitesFullFidelityLine(t *testing.T) {
	oldSeed := seed{SerialMs: 200, ParallelMs: 120,
		FullSerialMs: 4300, FullSerialRangeMs: [2]float64{4250, 4400},
		FullParallelMs: 2200, FullParallelRangeMs: [2]float64{2150, 2300}}
	newSeed := seed{SerialMs: 180, ParallelMs: 110,
		FullSerialMs: 3440, FullSerialRangeMs: [2]float64{3400, 3500},
		FullParallelMs: 1760, FullParallelRangeMs: [2]float64{1700, 1800}}

	var b strings.Builder
	suites(&b, oldSeed, newSeed)
	want := "full fidelity serial: 4300ms [4250, 4400] -> 3440ms [3400, 3500] (-20.0%)" +
		"   parallel (-j): 2200ms [2150, 2300] -> 1760ms [1700, 1800] (-20.0%)\n"
	if !strings.Contains(b.String(), want) {
		t.Errorf("summary lacks the full-fidelity line %q:\n%s", want, b.String())
	}

	for name, pair := range map[string][2]seed{
		"old lacks it": {{SerialMs: 200, ParallelMs: 120}, newSeed},
		"new lacks it": {oldSeed, {SerialMs: 180, ParallelMs: 110}},
	} {
		b.Reset()
		suites(&b, pair[0], pair[1])
		if strings.Contains(b.String(), "full fidelity") {
			t.Errorf("%s: summary prints a full-fidelity line:\n%s", name, b.String())
		}
		if !strings.Contains(b.String(), "suite serial:") {
			t.Errorf("%s: summary lost the quick-suite line:\n%s", name, b.String())
		}
	}
}
