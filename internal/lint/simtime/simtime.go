// Package simtime polices the boundary between stdlib time and the
// simulation clock.
//
// Every latency in the repository is a sim.Duration (picoseconds) and every
// timestamp a sim.Time, so device-level and OS-level timing share one base
// (internal/sim/time.go). A stdlib time.Duration is nanoseconds; letting
// one cross into sim arithmetic is a silent 1000x unit error the type
// system cannot catch once a conversion bridges the two. This analyzer
// flags, outside the sim package itself:
//
//   - conversions between time.Duration/time.Time and sim.Duration/sim.Time
//     in either direction (the only way the two families can mix);
//   - in internal/... non-test code, any other use of the time.Duration or
//     time.Time types, and of the time package's duration constants
//     (time.Millisecond etc.) — simulation code has no business holding
//     wall-clock quantities at all.
//
// Suppress a deliberate bridge in place:
//
//	d := sim.Duration(cfg.Timeout) //lint:allow simtime CLI flag is wall-clock
package simtime

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the simtime pass.
var Analyzer = &analysis.Analyzer{
	Name: "simtime",
	Doc:  "forbid mixing stdlib time.Duration/time.Time with sim.Duration/sim.Time outside the sim package",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	pkgPath := pass.Pkg.Path()
	if analysis.SimPackage(pkgPath) {
		return nil, nil
	}
	internal := analysis.InternalPackage(pkgPath)

	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		// Selectors consumed by a reported conversion; skipped by the
		// type-reference rule so one bridge yields one diagnostic.
		reported := make(map[ast.Expr]bool)

		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if len(n.Args) != 1 {
					return true
				}
				tv, ok := pass.TypesInfo.Types[n.Fun]
				if !ok || !tv.IsType() {
					return true
				}
				dst := tv.Type
				src := pass.TypesInfo.TypeOf(n.Args[0])
				switch {
				case analysis.SimTemporal(dst) && stdTemporal(src):
					reported[n.Fun] = true
					pass.Reportf(n.Pos(), "converting %s to %s mixes wall-clock time with simulated time: sim durations are picoseconds, not nanoseconds; model the latency in sim units directly", typeName(src), typeName(dst))
				case stdTemporal(dst) && analysis.SimTemporal(src):
					reported[n.Fun] = true
					pass.Reportf(n.Pos(), "converting %s to %s mixes wall-clock time with simulated time: render sim durations with their own methods (String, Milliseconds, ...) instead", typeName(src), typeName(dst))
				}
			case *ast.SelectorExpr:
				if !internal || reported[n] {
					return true
				}
				id, ok := n.X.(*ast.Ident)
				if !ok {
					return true
				}
				pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
				if !ok || pkgName.Imported().Path() != "time" {
					return true
				}
				switch obj := pass.TypesInfo.Uses[n.Sel].(type) {
				case *types.TypeName:
					if obj.Name() == "Duration" || obj.Name() == "Time" {
						pass.Reportf(n.Pos(), "stdlib time.%s in simulation code: all simulated timing must be sim.%s (picoseconds)", obj.Name(), obj.Name())
					}
				case *types.Const:
					if stdTemporal(obj.Type()) {
						pass.Reportf(n.Pos(), "stdlib duration constant time.%s in simulation code: use the sim.%s unit constants (picosecond base) instead", obj.Name(), obj.Name())
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// stdTemporal reports whether t is stdlib time.Duration or time.Time.
func stdTemporal(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	name := obj.Name()
	return (name == "Duration" || name == "Time") && obj.Pkg().Path() == "time"
}

// typeName renders a named type as pkg.Name for diagnostics.
func typeName(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return t.String()
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Name() + "." + obj.Name()
}
