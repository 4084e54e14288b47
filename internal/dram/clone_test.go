package dram

import (
	"testing"

	"repro/internal/snapshot"
)

// TestCloneCompleteness pins DIMM's field list against Clone: a new
// mutable field fails here until the clone handles it. (bank is a value
// type copied wholesale by slices.Clone.)
func TestCloneCompleteness(t *testing.T) {
	snapshot.CheckCovered(t, DIMM{},
		"cfg", "banks", "nextRefresh",
		"reads", "writes", "rowHits", "refreshes")
	snapshot.CheckCovered(t, bank{}, "openRow", "hasOpen", "busyUntil")
}
