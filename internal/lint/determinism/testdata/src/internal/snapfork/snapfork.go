// Package snapfork is the snapshot-flavored determinism fixture: clone
// helpers shaped like the real fork paths (internal/snapshot, the device
// Clone methods, Platform.Fork). The hazard class for clones is map-order
// escape — a clone that walks a map into a slice freezes host-random
// ordering into the copy, and a fork built from it diverges from a rebuilt
// system byte-for-byte.
package snapfork

import "sort"

type table struct {
	entries map[uint64]uint64
	order   []uint64
}

// cloneFrozen lets the map walk's order escape into the clone's order
// slice: two forks of the same table disagree on iteration order.
func cloneFrozen(t *table) *table {
	out := &table{entries: make(map[uint64]uint64, len(t.entries))}
	for k, v := range t.entries { // want `map keys collected into a slice that is never sorted`
		out.entries[k] = v
		out.order = append(out.order, k)
	}
	return out
}

// ForkFrozen inherits cloneFrozen's impurity transitively.
func ForkFrozen(t *table) *table {
	return cloneFrozen(t) // want `transitively nondeterministic`
}

// cloneSorted does the same walk but restores a canonical order before it
// can escape, the sanctioned clone pattern for keyed state.
func cloneSorted(t *table) *table {
	out := &table{entries: make(map[uint64]uint64, len(t.entries))}
	for k, v := range t.entries {
		out.entries[k] = v
		out.order = append(out.order, k)
	}
	sort.Slice(out.order, func(i, j int) bool { return out.order[i] < out.order[j] })
	return out
}

// ForkSorted stays clean.
func ForkSorted(t *table) *table {
	return cloneSorted(t)
}

// cloneMapToMap copies keyed state map-to-map: iteration order cannot
// escape a commutative copy, so the real device Clones use exactly this
// shape (kernel page tables, journal home images, PSM dead-device sets).
func cloneMapToMap(src map[uint64]uint64) map[uint64]uint64 {
	out := make(map[uint64]uint64, len(src))
	for k, v := range src {
		out[k] = v
	}
	return out
}

// ForkMapToMap stays clean.
func ForkMapToMap(src map[uint64]uint64) map[uint64]uint64 {
	return cloneMapToMap(src)
}
