// Package good must produce no determinism diagnostics.
package good

import (
	"sort"
	"time"
)

// Duration constants and type names from time are fine; only live clock
// reads are banned (the obs CLI parses -holdup as a time.Duration).
const window time.Duration = 16 * time.Millisecond

// Lookup-only maps are fine: the registry indexes by name but never
// ranges, so no host-random order can reach the output.
type registry struct {
	names  []string
	byName map[string]int
}

func (r *registry) Lookup(name string) (int, bool) {
	v, ok := r.byName[name]
	return v, ok
}

// Ranging a sorted slice copy is the sanctioned export pattern.
func (r *registry) Sorted() []string {
	out := make([]string, len(r.names))
	copy(out, r.names)
	sort.Strings(out)
	return out
}

// A reasoned directive accepts a genuinely order-independent fold.
func (r *registry) Sum() int {
	total := 0
	for _, v := range r.byName { //lint:allow determinism commutative sum, never exported
		total += v
	}
	return total
}
