// Package bad exercises the exported-layer triggers in the snapshot
// layer: a fork accountant that stamps forks from the host clock or
// exports a ranged map feeds host-random bytes into the very counters
// sweeps assert byte-identical at every -j level.
package bad

import "time"

type accountant struct {
	byDevice map[string]uint64
}

func (a *accountant) RecordFork() int64 {
	return time.Now().UnixNano() // want `time\.Now in internal/snapshot`
}

func (a *accountant) TotalBytes() uint64 {
	var total uint64
	for _, n := range a.byDevice { // want `map iteration in internal/snapshot`
		total += n
	}
	return total
}
