package analysis

import (
	"go/types"
	"strings"
)

// InternalPackage reports whether the import path lies in an internal/
// subtree — the simulation core, where the determinism analyzer reports
// host-state reads.
// cmd/ and examples/ front-ends stay out of scope: they may legitimately
// touch the host environment.
func InternalPackage(path string) bool {
	return path == "internal" ||
		strings.HasPrefix(path, "internal/") ||
		strings.HasSuffix(path, "/internal") ||
		strings.Contains(path, "/internal/")
}

// SimPackage reports whether the import path is the simulation-substrate
// package itself (repro/internal/sim, or a fixture stub named sim), which
// owns the sim.Time/sim.Duration boundary.
func SimPackage(path string) bool {
	return path == "sim" || strings.HasSuffix(path, "/sim")
}

// SimTemporal reports whether t is sim.Time or sim.Duration, the picosecond
// simulation clock: a Time or Duration type declared in a sim package.
func SimTemporal(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	name := named.Obj().Name()
	return (name == "Time" || name == "Duration") && SimPackage(named.Obj().Pkg().Path())
}
