// Package impuredep is the dependency side of the transitive-determinism
// fixture. It is NOT an internal package, so its clock read is not reported —
// but it still exports Impure facts that the internal/app fixture imports.
package impuredep

import "time"

// Stamp reads the wall clock: the canonical impurity seed.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Wraps is impure only transitively, through Stamp.
func Wraps() int64 {
	return Stamp() + 1
}

// Pure is plain arithmetic; no fact is exported for it.
func Pure(x int) int { return x * 3 }
