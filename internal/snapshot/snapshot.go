// Package snapshot is the accounting and verification layer under the
// platform's copy-on-fork surface (lightpc.Platform.Fork, crashpoint's
// build-once-fork-per-cut sweeps). The deep-copy work itself lives as
// Clone methods next to each device's state (internal/linetab carries the
// shared table clones); this package holds what the copies have in common:
//
//   - Stats, the fork counter every fork reports into (how many forks, how
//     many bytes of state they duplicated) — cmd/lightpc-benchmark reads it
//     for the bytes each forked cut copies;
//   - the reflection completeness check (CheckCovered) that every clone
//     test runs so a newly added mutable device field cannot silently skip
//     snapshotting.
//
// Everything here is deterministic by construction: counters are plain
// atomics whose totals are order-insensitive, and the completeness walk
// uses reflect's declaration-ordered field enumeration — no wall clock, no
// map iteration (the determinism analyzer's strictest level enforces both).
package snapshot

import "sync/atomic"

// Stats tallies fork activity. Adds are atomic so concurrent sweep workers
// (-j N) can share one instance; the totals are sums and therefore
// identical at any worker count.
type Stats struct {
	forks uint64
	bytes uint64
}

// RecordFork tallies one fork that duplicated approximately n bytes of
// mutable state.
func (s *Stats) RecordFork(n uint64) {
	if s == nil {
		return
	}
	atomic.AddUint64(&s.forks, 1)
	atomic.AddUint64(&s.bytes, n)
}

// Forks reports how many forks have been recorded.
func (s *Stats) Forks() uint64 {
	if s == nil {
		return 0
	}
	return atomic.LoadUint64(&s.forks)
}

// Bytes reports the total bytes duplicated across all recorded forks.
func (s *Stats) Bytes() uint64 {
	if s == nil {
		return 0
	}
	return atomic.LoadUint64(&s.bytes)
}

// Reset zeroes the counters (tests and per-report scoping).
func (s *Stats) Reset() {
	if s == nil {
		return
	}
	atomic.StoreUint64(&s.forks, 0)
	atomic.StoreUint64(&s.bytes, 0)
}

// global is the process-wide fork accountant (Default). Forks from any
// platform report here unless a caller scopes its own Stats.
var global Stats

// Default returns the process-wide Stats instance.
func Default() *Stats { return &global }
