package main

import (
	"runtime"
	"strconv"
	"testing"
)

// TestParseBenchKeepsPackage checks that each parsed line carries the
// package go test announced before it, which is where rerunPinned runs it
// again, and that the allocator columns are read.
func TestParseBenchKeepsPackage(t *testing.T) {
	suffix := "-" + strconv.Itoa(runtime.GOMAXPROCS(0))
	out := "goos: linux\npkg: repro\n" +
		"BenchmarkA" + suffix + " \t 1\t 2000 ns/op\t 48 B/op\t 1 allocs/op\n" +
		"PASS\nok  \trepro\t0.1s\npkg: repro/internal/sim\n" +
		"BenchmarkB/sub" + suffix + " \t 100\t 30.5 ns/op\t 0 B/op\t 0 allocs/op\t 7.0 ns/ref\n"
	got := parseBench(out)
	want := []benchLine{
		{Name: "BenchmarkA", NsPerOp: 2000, BytesPerOp: 48, AllocsPerOp: 1, pkg: "repro"},
		{Name: "BenchmarkB/sub", NsPerOp: 30.5, Metrics: map[string]float64{"ns/ref": 7}, pkg: "repro/internal/sim"},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d lines, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name || g.NsPerOp != w.NsPerOp || g.BytesPerOp != w.BytesPerOp ||
			g.AllocsPerOp != w.AllocsPerOp || g.pkg != w.pkg || g.Metrics["ns/ref"] != w.Metrics["ns/ref"] {
			t.Errorf("line %d = %+v, want %+v", i, g, w)
		}
	}
}
