// Package determinism guards the reproduction's headline property: the same
// seed gives the same bytes. Every golden table, the energy golden, the
// crash-point sweeps and the -j 1 ≡ -j N checks rest on it, and one read of
// host state or one host-random map order on the path to an output breaks it
// silently — usually in a code path no test happens to cover.
//
// One walk per declaration feeds three mechanisms:
//
//   - a source table of host-state readers: the wall clock (time.Now,
//     Since, Until, Sleep, After, AfterFunc, Tick, NewTicker, NewTimer),
//     ambient randomness (anything from math/rand, math/rand/v2 or
//     crypto/rand) and the host environment (os.Getenv and friends,
//     process identity, file reads). Constants and types from time stay
//     legal; the simtime analyzer polices those. A reference to a source
//     is reported and seeds the enclosing function's Impure fact.
//   - a map-range classifier: Go randomizes range order per run, so a
//     range over a map is order-sensitive when its body formats output,
//     issues Write* calls, builds a report table, calls anything taking or
//     returning sim.Time/sim.Duration (the simulated timeline), appends
//     non-key material to a slice, or collects the keys into a slice the
//     function never sorts. The fix is always to collect the keys, sort
//     them and range over the sorted slice. A body that appends at all,
//     with no later sort, also seeds Impure: the host-random order escapes
//     into returned data. Pure folds (sums, counts, building other maps)
//     stay pure.
//   - the Impure fact, propagated to a fixpoint over the package's static
//     call graph and carried to importing packages in the vet facts file,
//     so a helper three packages away that reads the clock poisons its
//     callers here. Each call edge into an impure function is reported.
//
// Which of these findings are reported depends on a strictness table keyed
// by import path; each level adds to the one above it:
//
//	every package                 order-sensitive map ranges in non-test files
//	internal/...                  source references and calls into Impure functions
//	internal/obs|energy|snapshot  every map range; test files are not exempt
//
// cmd/ and examples/ front-ends may legitimately read the host clock and
// environment. The last level holds the layers whose output is the
// artifact: the obs exporters promise byte-identical Chrome traces and
// Prometheus text, energy's joules feed the same gauges and goldens one
// layer earlier, and snapshot's fork accountant feeds counters that sweeps
// assert byte-identical at every -j level. Their byte-equality tests are
// part of that contract, so test files obey the same rules, and a map there
// is for lookups only: keep insertion order in a slice and sort a copy.
// A position gets at most one diagnostic; where levels overlap, the
// stricter level's message wins.
//
// A function annotated //lightpc:pure is trusted: it neither seeds nor
// propagates Impure, and neither its calls nor its host-environment reads
// are reported. It never excuses a clock or rand read. Use it where the
// nondeterminism is deliberate and contained (lint tooling reading the vet
// protocol's files, not simulation state). A single exception carries a
// reasoned directive:
//
//	for k := range m { //lint:allow determinism order-independent fold
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the determinism pass.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid host state (wall clock, ambient rand, env reads) and host-random map order on the path to golden and exported bytes",
	Run:  run,
}

// Impure is the fact carried by any function that transitively reaches a
// nondeterminism source. Reason names the root cause and the path's first
// hop, e.g. "calls sim.wallClock: reads the host clock via time.Now".
type Impure struct {
	Reason string
}

// AFact marks Impure as a fact type.
func (*Impure) AFact() {}

// level is a rung of the strictness table; each includes those below it.
type level int

const (
	anyPkg   level = iota // order-sensitive map ranges in non-test files
	internal              // + source references and calls into Impure functions
	exported              // + every map range; test files are not exempt
)

// exportedLayers are the packages whose output is the artifact itself.
var exportedLayers = []string{"internal/obs", "internal/energy", "internal/snapshot"}

// levelOf looks an import path up in the strictness table (an external
// test package shares its package's row). layer names the exported layer,
// verbatim in diagnostics.
func levelOf(path string) (lvl level, layer string) {
	path = strings.TrimSuffix(path, "_test")
	for _, layer := range exportedLayers {
		if strings.Contains("/"+path+"/", "/"+layer+"/") {
			return exported, layer
		}
	}
	if analysis.InternalPackage(path) {
		return internal, ""
	}
	return anyPkg, ""
}

// source is one row of the host-state table. A nil members set makes every
// member of the package a source.
type source struct {
	what    string // the host state read, for diagnostics
	fix     string
	members map[string]bool
	trusted bool // //lightpc:pure excuses it
}

var (
	randSource = source{what: "ambient randomness", fix: "draw from an explicitly seeded sim.RNG instead"}
	sources    = map[string]source{
		"time": {what: "the host clock", fix: "thread simulated time (sim.Time) through the call instead",
			members: set("Now", "Since", "Until", "Sleep", "After", "AfterFunc", "Tick", "NewTicker", "NewTimer")},
		"math/rand":    randSource,
		"math/rand/v2": randSource,
		"crypto/rand":  {what: "entropy", fix: randSource.fix},
		"os": {what: "the host environment", fix: "pass the value in explicitly, or annotate the function //lightpc:pure with justification",
			members: set("Getenv", "LookupEnv", "Environ", "ExpandEnv", "Hostname", "Getpid", "Getppid", "Getuid", "Getgid",
				"Getwd", "UserHomeDir", "UserCacheDir", "UserConfigDir", "TempDir",
				"ReadFile", "ReadDir", "Open", "OpenFile", "Stat", "Lstat"),
			trusted: true},
	}
)

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// fmtFormatters are the fmt functions that render values into output.
var fmtFormatters = set("Sprintf", "Sprint", "Sprintln", "Printf", "Print", "Println",
	"Fprintf", "Fprint", "Fprintln", "Errorf", "Appendf", "Append", "Appendln")

// sorters are the sort/slices calls that establish a deterministic order.
var sorters = set("Sort", "SortFunc", "SortStableFunc", "Stable",
	"Slice", "SliceStable", "Strings", "Ints", "Float64s")

// fn is what one declaration does.
type fn struct {
	obj    *types.Func // nil for a non-function declaration
	pure   bool        // //lightpc:pure: trusted, neither seeded nor propagated
	impure string      // seed, then fixpoint result ("" = pure)
	edges  []edge      // static calls out of the declaration
}

type edge struct {
	callee *types.Func
	pos    token.Pos
}

// checker carries one package through the walk and the fixpoint.
type checker struct {
	pass  *analysis.Pass
	lvl   level
	layer string
	fns   map[*types.Func]*fn
}

func run(pass *analysis.Pass) (interface{}, error) {
	lvl, layer := levelOf(pass.Pkg.Path())
	c := &checker{pass: pass, lvl: lvl, layer: layer, fns: make(map[*types.Func]*fn)}
	var fns []*fn
	for _, f := range pass.Files {
		if lvl < exported && pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fns = append(fns, c.walk(d))
		}
	}

	// Fixpoint: a function is impure when seeded or when any static
	// callee is impure, locally or by an imported fact.
	for changed := true; changed; {
		changed = false
		for _, in := range fns {
			if in.pure || in.impure != "" {
				continue
			}
			for _, e := range in.edges {
				if reason := c.impurity(e.callee); reason != "" {
					in.impure = "calls " + analysis.FuncLabel(e.callee) + ": " + reason
					changed = true
					break
				}
			}
		}
	}

	for _, in := range fns {
		if in.impure != "" && in.obj != nil {
			pass.ExportObjectFact(in.obj, &Impure{Reason: in.impure})
		}
		if lvl < internal || in.pure {
			continue
		}
		for _, e := range in.edges {
			if reason := c.impurity(e.callee); reason != "" {
				pass.Reportf(e.pos, "call to %s, which is transitively nondeterministic (%s); thread sim.Time and explicit RNGs, or annotate the callee //lightpc:pure with justification", analysis.FuncLabel(e.callee), reason)
			}
		}
	}
	return nil, nil
}

// walk is the one pass over a declaration: it reports source references and
// map ranges as the level demands, and records the Impure seed and the
// static call edges the fixpoint needs. A closure's behavior is attributed
// to the function that creates it, since that function may run it.
func (c *checker) walk(decl ast.Decl) *fn {
	in := &fn{}
	if fd, ok := decl.(*ast.FuncDecl); ok {
		in.obj, _ = c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
		in.pure = analysis.HasAnnotation(fd, "pure")
		if in.obj != nil {
			c.fns[in.obj] = in
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			c.source(in, n)
		case *ast.CallExpr:
			c.call(in, n)
		case *ast.RangeStmt:
			c.mapRange(in, decl, n)
		}
		return true
	})
	return in
}

// seed marks the declaration directly impure, keeping the first reason.
func (in *fn) seed(reason string) {
	if !in.pure && in.impure == "" {
		in.impure = reason
	}
}

// source handles a reference into the host-state table.
func (c *checker) source(in *fn, sel *ast.SelectorExpr) {
	path := importedPath(c.pass, sel)
	src, ok := sources[path]
	if !ok || src.members != nil && !src.members[sel.Sel.Name] || in.pure && src.trusted {
		return
	}
	ref := path + "." + sel.Sel.Name
	if src.members == nil {
		ref = path + " (" + sel.X.(*ast.Ident).Name + "." + sel.Sel.Name + ")"
	}
	in.seed("reads " + src.what + " via " + ref)
	switch c.lvl {
	case exported:
		c.pass.Reportf(sel.Pos(), "%s in %s: exported trace/metric bytes must be a pure function of sim time, never %s", ref, c.layer, src.what)
	case internal:
		c.pass.Reportf(sel.Pos(), "%s in simulation code: %s breaks bit-for-bit determinism; %s", ref, src.what, src.fix)
	}
}

// call records a static call edge to a package-level function or concrete
// method; calls through interfaces and func values are out of reach of
// facts.
func (c *checker) call(in *fn, call *ast.CallExpr) {
	callee := analysis.StaticCallee(c.pass.TypesInfo, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	if recv := callee.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return
	}
	in.edges = append(in.edges, edge{callee: callee, pos: call.Pos()})
}

// impurity reports why callee is impure, or "".
func (c *checker) impurity(callee *types.Func) string {
	if in, ok := c.fns[callee]; ok {
		return in.impure
	}
	var fact Impure
	if callee.Pkg() != c.pass.Pkg && c.pass.ImportObjectFact(callee, &fact) {
		return fact.Reason
	}
	return ""
}

// mapRange classifies one range statement, if it ranges over a map.
func (c *checker) mapRange(in *fn, scope ast.Node, rs *ast.RangeStmt) {
	t := c.pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	key, val := objectOf(c.pass, rs.Key), objectOf(c.pass, rs.Value)
	reason := "" // first order-sensitive trigger in the body
	appends := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			r, isAppend := classify(c.pass, call, key, val)
			appends = appends || isAppend
			if reason == "" {
				reason = r
			}
		}
		return true
	})
	unsorted := appends && !sortFollows(c.pass, scope, rs.End())
	if unsorted {
		in.seed("freezes map iteration order into a slice that is never sorted")
	}
	switch {
	case c.lvl == exported:
		c.pass.Reportf(rs.Pos(), "map iteration in %s: range order is host-random and would leak into exported bytes; keep insertion order in a slice and sort a copy", c.layer)
	case reason != "":
		c.pass.Reportf(rs.Pos(), "range over map %s in host-random order; collect the keys, sort them, and range over the sorted slice (golden output and the simulated timeline must not depend on map order)", reason)
	case unsorted:
		c.pass.Reportf(rs.Pos(), "map keys collected into a slice that is never sorted; sort before use or the order is host-random")
	}
}

// classify names the order-sensitive thing one call in a map-range body
// does ("" if none) and whether it is the builtin append. Appending only
// the range variables is the collect-then-sort idiom, judged by
// sortFollows; anything else appended freezes map order.
func classify(pass *analysis.Pass, call *ast.CallExpr, key, val types.Object) (reason string, isAppend bool) {
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
		if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			for _, arg := range call.Args[1:] {
				if obj := objectOf(pass, arg); obj == nil || obj != key && obj != val {
					return "appends non-key material to a slice", true
				}
			}
			return "", true
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		switch recv := receiverPkgPath(pass, sel); {
		case importedPath(pass, sel) == "fmt" && fmtFormatters[sel.Sel.Name]:
			return "formats output", false
		case strings.HasPrefix(sel.Sel.Name, "Write"):
			return "issues writes", false
		case recv == "report" || strings.HasSuffix(recv, "/report"):
			return "builds a report table", false
		}
	}
	if sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature); ok && temporalSignature(sig) {
		return "advances simulated time", false
	}
	return "", false
}

// temporalSignature reports whether any parameter or result is a
// sim.Time/sim.Duration (or a slice of one): a call through which map
// order would reach the simulated timeline.
func temporalSignature(sig *types.Signature) bool {
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tup.Len(); i++ {
			t := tup.At(i).Type()
			if s, ok := t.(*types.Slice); ok {
				t = s.Elem()
			}
			if analysis.SimTemporal(t) {
				return true
			}
		}
	}
	return false
}

// sortFollows reports whether a sort.*/slices.Sort* call appears in scope
// after pos.
func sortFollows(pass *analysis.Pass, scope ast.Node, pos token.Pos) bool {
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !found && call.Pos() >= pos {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				path := importedPath(pass, sel)
				found = (path == "sort" || path == "slices") && sorters[sel.Sel.Name]
			}
		}
		return !found
	})
	return found
}

// importedPath returns the package a qualified identifier pkg.Name refers
// to, or "" when sel is not package-qualified.
func importedPath(pass *analysis.Pass, sel *ast.SelectorExpr) string {
	if id, ok := sel.X.(*ast.Ident); ok {
		if pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
			return pkgName.Imported().Path()
		}
	}
	return ""
}

// receiverPkgPath reports the package path of a method call's receiver
// type, or "".
func receiverPkgPath(pass *analysis.Pass, sel *ast.SelectorExpr) string {
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return ""
	}
	t := selection.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path()
}

// objectOf resolves an identifier expression to its object, or nil.
func objectOf(pass *analysis.Pass, e ast.Expr) types.Object {
	if id, ok := e.(*ast.Ident); ok {
		return pass.TypesInfo.ObjectOf(id)
	}
	return nil
}
