package determinism_test

import (
	"testing"

	"repro/internal/lint/determinism"
	"repro/internal/lint/linttest"
)

// Each test covers one part of the strictness table. The outside package
// sits outside internal/ and is the silent control for both the internal/
// rung and the exported-layer rung.

// TestDeterminismMapOrder covers the every-package rung: order-sensitive
// map ranges in non-test files.
func TestDeterminismMapOrder(t *testing.T) {
	linttest.Run(t, "testdata", determinism.Analyzer, "mo", "mogood")
}

// TestDeterminismSimSources covers direct clock, rand and host-environment
// reads in internal/ simulation code.
func TestDeterminismSimSources(t *testing.T) {
	linttest.Run(t, "testdata", determinism.Analyzer,
		"internal/bad", "internal/good", "outside")
}

// TestDeterminismImpureReach covers calls into functions that carry the
// Impure fact, including ones exported by a dependency outside internal/.
func TestDeterminismImpureReach(t *testing.T) {
	linttest.Run(t, "testdata", determinism.Analyzer,
		"impuredep", "internal/app", "internal/snapfork")
}

// TestDeterminismExportedLayers covers the obs, energy and snapshot rung:
// every map range, and test files are not exempt.
func TestDeterminismExportedLayers(t *testing.T) {
	linttest.Run(t, "testdata", determinism.Analyzer,
		"internal/obs/bad", "internal/obs/good",
		"internal/energy/bad", "internal/energy/good",
		"internal/snapshot/bad", "internal/snapshot/good", "outside")
}
