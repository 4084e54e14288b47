package psm

import (
	"testing"

	"repro/internal/snapshot"
)

// TestCloneCompleteness pins each cloned struct's field list: a new
// mutable field fails here until PSM.Clone / DataStore.CloneFor handles
// it. (tr and trLane are deliberately dropped, so a clone starts untraced;
// Stats and rowBuffer are value types copied wholesale; rs is the
// immutable codec and stays shared.)
func TestCloneCompleteness(t *testing.T) {
	snapshot.CheckCovered(t, PSM{},
		"cfg", "dimms", "buffers", "window", "slots", "interleave", "wearLines",
		"wl", "stats", "readLat", "writeAckLat",
		"hold", "mce", "drainScratch", "scrubLines", "tr", "trLane")
	snapshot.CheckCovered(t, DataStore{},
		"psm", "lines", "rsWords", "rs", "deadDevs",
		"reconstructions", "symbolRepairs")
	snapshot.CheckCovered(t, StartGap{},
		"lines", "start", "gap", "mult", "add", "writes", "threshold", "moves")
	snapshot.CheckCovered(t, mceState{}, "poisoned", "resets", "retries", "poisons")
	snapshot.CheckCovered(t, rowBuffer{}, "open", "window", "dirty")
}
