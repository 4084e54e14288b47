// Package good must produce no determinism diagnostics beyond
// the clock read that //lightpc:pure cannot excuse.
package good

import (
	"os"
	"time"
)

// Deterministic hashing is fine.
func Mix(seed uint64) uint64 {
	seed ^= seed >> 30
	seed *= 0xbf58476d1ce4e5b9
	return seed ^ seed>>31
}

// Duration constants and formatting helpers from time do not touch the
// host clock; only the temporal entry points are flagged.
const tick = time.Millisecond

// WallClock demonstrates the escape hatch for a sanctioned exception.
func WallClock() int64 {
	return time.Now().UnixNano() //lint:allow determinism CLI progress meter only
}

// WallClockAbove demonstrates the directive on its own line.
func WallClockAbove() time.Time {
	//lint:allow determinism CLI progress meter only
	return time.Now()
}

// ConfigDir reads the host environment on purpose; the annotation vouches
// for it, so neither the read nor a call to it is reported.
//
//lightpc:pure fixture: the result only names a directory, never enters state
func ConfigDir() string {
	return os.Getenv("LIGHTPC_CONFIG")
}

// UsesConfigDir calls the trusted reader; no diagnostic.
func UsesConfigDir() string { return ConfigDir() }

// PureClock claims purity, but a clock read is never excused.
//
//lightpc:pure fixture: the annotation covers calls and env reads only
func PureClock() int64 {
	return time.Now().UnixNano() // want `time\.Now in simulation code`
}
