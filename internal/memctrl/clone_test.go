package memctrl

import (
	"testing"

	"repro/internal/snapshot"
)

// TestCloneCompleteness pins the DRAM controller's field list against its
// Clone: a new mutable field fails here until the clone handles it.
func TestCloneCompleteness(t *testing.T) {
	snapshot.CheckCovered(t, DRAMController{}, "dimms", "interleave", "ctrlLat")
}
