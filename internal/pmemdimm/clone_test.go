package pmemdimm

import (
	"testing"

	"repro/internal/snapshot"
)

// TestCloneCompleteness pins each cloned struct's field list: a new
// mutable field fails here until the clone handles it.
func TestCloneCompleteness(t *testing.T) {
	snapshot.CheckCovered(t, lru{},
		"nodes", "n", "heads", "shift", "head", "tail", "stamp", "dirty")
	snapshot.CheckCovered(t, DIMM{},
		"cfg", "rng", "sram", "dram", "busyUntil", "stats")
	snapshot.CheckCovered(t, SectorDevice{},
		"dimm", "SyscallCost", "QueueDepth", "inflight", "reads", "writes")
}
