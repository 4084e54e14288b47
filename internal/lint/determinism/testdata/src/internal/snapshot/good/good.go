// Package good must produce no determinism diagnostics: the real
// internal/snapshot keeps order-insensitive atomic sums and never touches
// the host clock, so its counters are byte-identical at any -j level.
package good

import "sync/atomic"

type stats struct {
	forks uint64
	bytes uint64
}

// RecordFork is an order-insensitive sum: additions commute, so parallel
// sweep workers can fork freely without perturbing exported bytes.
func (s *stats) RecordFork(n uint64) {
	atomic.AddUint64(&s.forks, 1)
	atomic.AddUint64(&s.bytes, n)
}

func (s *stats) Forks() uint64 { return atomic.LoadUint64(&s.forks) }

// Lookup-only map access is fine; no range order can leak.
func covered(handled map[string]bool, field string) bool {
	return handled[field]
}
