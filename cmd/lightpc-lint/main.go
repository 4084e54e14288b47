// Command lightpc-lint is the repository's static-analysis suite, run as a
// go vet tool:
//
//	go build -o bin/lightpc-lint ./cmd/lightpc-lint
//	go vet -vettool=$(pwd)/bin/lightpc-lint ./...
//
// (or simply `make lint`). It bundles the analyzers below, which enforce at
// vet time the invariants the reproduction otherwise only checks
// dynamically:
//
//	determinism   same seed, same bytes: no host state (wall clock, ambient
//	              rand, env reads) in internal/, directly or through an
//	              Impure fact propagated across packages; no map range
//	              that feeds output or sim time unsorted anywhere; no map
//	              range at all in internal/obs, energy and snapshot,
//	              tests included
//	epcutorder    in internal/sng and internal/checkpoint, the EP-cut
//	              commit is dominated by flush/sync, nothing persistent
//	              moves after the commit, and spend() deadlines are checked
//	persistorder  in journal/pmdk/psm, every persistent mutation in a
//	              logging function follows the journal append, and nothing
//	              persistent moves after a //lightpc:commitpoint
//	zeroalloc     functions annotated //lightpc:zeroalloc (and the pinned
//	              hot set behind BENCH_SEED.json's 0 allocs/op benches)
//	              contain no allocation sites and only call functions that
//	              carry the zeroalloc fact, transitively across packages
//	simtime       stdlib time.Duration (nanoseconds) never mixes with
//	              sim.Duration/sim.Time (picoseconds)
//	hotpath       the device hot packages (pram, memctrl, psm, pmemdimm)
//	              may not hold map[uint64]-keyed fields; per-line metadata
//	              lives on internal/linetab's paged tables
//
// Findings can be suppressed in place with a reasoned directive:
//
//	expr //lint:allow <analyzer> <why this exception is sound>
//
// A directive that suppresses nothing is itself reported (as staleallow),
// so suppressions cannot outlive the code they excused.
package main

import (
	"repro/internal/lint/analysis"
	"repro/internal/lint/determinism"
	"repro/internal/lint/epcutorder"
	"repro/internal/lint/hotpath"
	"repro/internal/lint/persistorder"
	"repro/internal/lint/simtime"
	"repro/internal/lint/unitchecker"
	"repro/internal/lint/zeroalloc"
)

// analyzers is the suite, in the order findings are gathered. The package
// doc and README's "Static analysis" table must name exactly these.
var analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	epcutorder.Analyzer,
	persistorder.Analyzer,
	zeroalloc.Analyzer,
	simtime.Analyzer,
	hotpath.Analyzer,
}

func main() {
	unitchecker.Main(analyzers...)
}
