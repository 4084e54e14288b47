package nvdimm

import (
	"testing"

	"repro/internal/snapshot"
)

// TestCloneCompleteness pins DIMM's field list against Clone: a new
// mutable field fails here until the clone handles it.
func TestCloneCompleteness(t *testing.T) {
	snapshot.CheckCovered(t, DIMM{},
		"cfg", "devices", "shift", "groups", "slots",
		"reads", "writes", "reconstructs", "rmwOps", "containedCorru")
}
