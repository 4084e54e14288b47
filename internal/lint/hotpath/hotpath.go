// Package hotpath forbids map[uint64]-keyed fields in the hot packages:
// the device models (pram, memctrl, psm, pmemdimm) and the persistent-word
// holders every crash cut forks (kernel, journal).
//
// The device packages perform one metadata lookup per simulated memory
// access — in-flight cooling windows, wear counters, near-cache tags, line
// content — and a profile of the experiment suite once showed ~40% of all
// CPU inside Go map machinery for exactly these lookups. internal/linetab
// provides the paged replacements (Counters, Table, Bits, Slab, Flight)
// with O(1) access, index-ordered iteration, and zero steady-state
// allocation. A bounded structure keyed by block — pmemdimm's LRU tiers —
// uses a fixed-size bucket array chained through a fixed node arena
// instead, both sized once at construction. The kernel's banks and the WAL journal's images hold words
// keyed by address; the crash adversary clones them for every cut and
// digests them in address order, so they use internal/wordtab's
// copy-on-write Table, whose clone copies a page directory and whose walks
// need no sort. This analyzer keeps the maps from creeping back.
//
// Only struct fields are flagged: a local map inside a constructor or a
// cold path is fine; persistent per-line state held by a device model is
// not. Keys other than uint64 (e.g. composite keys like psm's devKey) are
// out of scope — the per-line index tables are what the hot path probes. A
// genuinely cold, bounded field can be accepted with
//
//	legacy map[uint64]bool //lint:allow hotpath cold path, bounded
package hotpath

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the hotpath pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "forbid map[uint64]-keyed fields in hot packages (use internal/linetab, internal/wordtab or a fixed-capacity index)",
	Run:  run,
}

// hotPackages are the device-model packages with per-access metadata
// lookups on the simulated memory path, and the packages whose persistent
// words every crash cut forks.
var hotPackages = []string{"pram", "memctrl", "psm", "pmemdimm", "kernel", "journal"}

// hotPackage reports whether the import path names a hot package
// (matched by final path element so fixture stubs scope the same way).
func hotPackage(path string) bool {
	last := path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		last = path[i+1:]
	}
	for _, p := range hotPackages {
		if last == p {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !hotPackage(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				t := pass.TypesInfo.TypeOf(field.Type)
				if t == nil || !uint64KeyedMap(t) {
					continue
				}
				name := "embedded"
				if len(field.Names) > 0 {
					name = field.Names[0].Name
				}
				pass.Reportf(field.Pos(), "map[uint64]-keyed field %s in hot package %s: per-line device metadata must use internal/linetab paged tables (Counters/Table/Bits/Slab/Flight), persistent words internal/wordtab's Table, and a bounded tier a fixed-size bucket array chained through a fixed node arena", name, pass.Pkg.Path())
			}
			return true
		})
	}
	return nil, nil
}

// uint64KeyedMap reports whether t is (or aliases) a map keyed by uint64,
// including named map types and named/aliased uint64 keys.
func uint64KeyedMap(t types.Type) bool {
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	basic, ok := m.Key().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Uint64
}
