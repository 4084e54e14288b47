package pram

import (
	"testing"

	"repro/internal/snapshot"
)

// TestCloneCompleteness pins Device's field list against Clone: a new
// mutable field fails here until the clone handles it.
func TestCloneCompleteness(t *testing.T) {
	snapshot.CheckCovered(t, Device{},
		"cfg", "rng", "busyUntil", "inFlight", "wear",
		"reads", "writes", "conflicts", "errInjected")
}
