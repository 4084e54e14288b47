// Command lightpc-lint is the repository's static-analysis suite, run as a
// go vet tool:
//
//	go build -o bin/lightpc-lint ./cmd/lightpc-lint
//	go vet -vettool=$(pwd)/bin/lightpc-lint ./...
//
// (or simply `make lint`). It bundles nine analyzers that enforce, at vet
// time, the invariants the reproduction otherwise only checks dynamically:
//
//	nodeterminism  no wall-clock time or ambient randomness in internal/;
//	               stochastic and temporal behavior flows through sim.RNG
//	               and sim.Time (determinism_test.go's property, statically)
//	detreach       interprocedural companion to nodeterminism: an "impure"
//	               fact (wall clock, ambient rand, env reads, map-order
//	               escape) propagates through the call graph, so calls into
//	               transitively nondeterministic helpers are flagged too
//	epcutorder     in internal/sng and internal/checkpoint, the EP-cut
//	               commit is dominated by flush/sync, nothing persistent
//	               moves after the commit, and spend() deadlines are checked
//	persistorder   in journal/pmdk/psm, every persistent mutation in a
//	               logging function follows the journal append, and nothing
//	               persistent moves after a //lightpc:commitpoint
//	zeroalloc      functions annotated //lightpc:zeroalloc (and the pinned
//	               hot set behind BENCH_SEED.json's 0 allocs/op benches)
//	               contain no allocation sites and only call functions that
//	               carry the zeroalloc fact, transitively across packages
//	maporder       no golden output or simulated timing may depend on Go's
//	               randomized map iteration order
//	simtime        stdlib time.Duration (nanoseconds) never mixes with
//	               sim.Duration/sim.Time (picoseconds)
//	obsdeterminism internal/obs may never read the host clock or range a
//	               map, in any file including tests: exported trace and
//	               metric bytes are a pure function of sim time
//	hotpath        the device hot packages (pram, memctrl, psm) may not
//	               hold map[uint64]-keyed fields; per-line metadata lives
//	               on internal/linetab's paged tables
//
// Findings can be suppressed in place with a reasoned directive:
//
//	expr //lint:allow <analyzer> <why this exception is sound>
//
// A directive that suppresses nothing is itself reported (as staleallow),
// so suppressions cannot outlive the code they excused.
package main

import (
	"repro/internal/lint/detreach"
	"repro/internal/lint/epcutorder"
	"repro/internal/lint/hotpath"
	"repro/internal/lint/maporder"
	"repro/internal/lint/nodeterminism"
	"repro/internal/lint/obsdeterminism"
	"repro/internal/lint/persistorder"
	"repro/internal/lint/simtime"
	"repro/internal/lint/unitchecker"
	"repro/internal/lint/zeroalloc"
)

func main() {
	unitchecker.Main(
		nodeterminism.Analyzer,
		detreach.Analyzer,
		epcutorder.Analyzer,
		persistorder.Analyzer,
		zeroalloc.Analyzer,
		maporder.Analyzer,
		simtime.Analyzer,
		obsdeterminism.Analyzer,
		hotpath.Analyzer,
	)
}
