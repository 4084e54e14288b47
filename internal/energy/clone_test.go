package energy

import (
	"testing"

	"repro/internal/snapshot"
)

// TestCloneCompleteness pins Meter and Set field lists against a platform
// fork's handling of them: the fork's own NewMeter calls set name, spec
// and counts (bound to the fork's devices) and fill meters, and
// CopyResidency copies the rest. A new mutable field fails here until the
// fork handles it.
func TestCloneCompleteness(t *testing.T) {
	snapshot.CheckCovered(t, Meter{},
		"name", "spec", "counts", "stateDur", "state", "since")
	snapshot.CheckCovered(t, Set{}, "meters")
}
