package main

import (
	"io"
	"slices"
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
