// Package persistorder enforces the journal-order discipline behind
// LightPC's crash consistency, interprocedurally, in the persistence
// packages (journal, pmdk, psm).
//
// Two rules, checked positionally within each function body:
//
//  1. journal-before-datastore: in a function that both appends to a
//     journal/undo log and mutates persistent state, every mutation must
//     come after the first append. Logging after the damage is done is
//     exactly the write-ordering bug class the PM literature shows
//     surviving testing.
//  2. nothing moves after commit: once a function calls a commit point,
//     no persistent mutation and no journal append may follow. The commit
//     marks the EP-cut; anything after it escapes the cut's atomicity.
//
// The anchors are declared in source:
//
//	//lightpc:journalappend  — this function IS the append primitive
//	//lightpc:commitpoint    — this function IS the commit primitive
//
// Both export facts, so pmdk calling journal's commit across a package
// boundary is still seen. Annotated primitives are exempt inside (their
// interior is the mechanics of the append/commit itself). As a rot guard,
// any method named Commit or TxCommit in the scoped packages must carry
// the commitpoint annotation.
//
// Persistent mutations are recognized by their ultimate sinks — writes to
// the simulated persistent media — and by a MutatesPersistent fact
// propagated through the call graph, so wrapping a sink in a helper does
// not hide it.
package persistorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the persistorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "persistorder",
	Doc:  "journal appends must precede persistent mutations; nothing persistent moves after a commit point",
	Run:  run,
}

// MutatesPersistent marks a function that (transitively) writes the
// simulated persistent media.
type MutatesPersistent struct{}

// AFact marks MutatesPersistent as a fact type.
func (*MutatesPersistent) AFact() {}

// JournalAppend marks a //lightpc:journalappend primitive.
type JournalAppend struct{}

// AFact marks JournalAppend as a fact type.
func (*JournalAppend) AFact() {}

// CommitPoint marks a //lightpc:commitpoint primitive.
type CommitPoint struct{}

// AFact marks CommitPoint as a fact type.
func (*CommitPoint) AFact() {}

// sinks are the persistent-media write primitives, keyed by receiver
// package (import path's last element), receiver type, and method.
type sinkKey struct{ pkg, typ, method string }

var sinks = map[sinkKey]string{
	{"kernel", "Bank", "Write"}:                 "kernel.Bank.Write",
	{"pmemdimm", "SectorDevice", "WriteSector"}: "pmemdimm.SectorDevice.WriteSector",
	{"linetab", "Slab", "Put"}:                  "linetab.Slab.Put",
	{"psm", "DataStore", "WriteData"}:           "psm.DataStore.WriteData",
	{"psm", "PSM", "Write"}:                     "psm.PSM.Write",
}

// scoped reports whether diagnostics apply in this package: the
// persistence stack, matched by the import path's last element so lint
// fixtures can model it.
func scoped(path string) bool {
	switch path[strings.LastIndex(path, "/")+1:] {
	case "journal", "pmdk", "psm":
		return true
	}
	return false
}

type eventKind int

const (
	evAppend eventKind = iota
	evCommit
	evMutate
)

type event struct {
	kind eventKind
	pos  token.Pos
	desc string
}

type funcInfo struct {
	decl    *ast.FuncDecl
	obj     *types.Func
	events  []event
	mutates bool // contains a sink or calls a mutator (fixpoint)
	calls   []*types.Func
	appendP bool // //lightpc:journalappend
	commitP bool // //lightpc:commitpoint
	isTest  bool
}

func run(pass *analysis.Pass) (interface{}, error) {
	var infos []*funcInfo
	byObj := make(map[*types.Func]*funcInfo)

	// Pass 1: annotations first, so intra-package calls to the primitives
	// classify correctly regardless of declaration order.
	for _, f := range pass.Files {
		isTest := pass.IsTestFile(f.Pos())
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			in := &funcInfo{
				decl:    fd,
				obj:     obj,
				appendP: analysis.HasAnnotation(fd, "journalappend"),
				commitP: analysis.HasAnnotation(fd, "commitpoint"),
				isTest:  isTest,
			}
			infos = append(infos, in)
			byObj[obj] = in
			if !isTest {
				if in.appendP {
					pass.ExportObjectFact(obj, &JournalAppend{})
				}
				if in.commitP {
					pass.ExportObjectFact(obj, &CommitPoint{})
				}
			}
		}
	}

	// Pass 2: collect events and the local call graph.
	for _, in := range infos {
		if in.decl.Body == nil {
			continue
		}
		collect(pass, byObj, in)
	}

	// Fixpoint: mutators propagate through local static calls.
	for changed := true; changed; {
		changed = false
		for _, in := range infos {
			if in.mutates {
				continue
			}
			for _, callee := range in.calls {
				if li, ok := byObj[callee]; ok && li.mutates {
					in.mutates = true
					changed = true
					break
				}
			}
		}
	}
	for _, in := range infos {
		if in.mutates && !in.isTest {
			pass.ExportObjectFact(in.obj, &MutatesPersistent{})
		}
	}

	if !scoped(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, in := range infos {
		if in.isTest || in.decl.Body == nil {
			continue
		}
		// Rot guard: commit-shaped names must be annotated commit points.
		if name := in.decl.Name.Name; (name == "Commit" || name == "TxCommit") && !in.commitP {
			pass.Reportf(in.decl.Pos(), "%s looks like a commit point but lacks //lightpc:commitpoint; annotate it so callers are checked against the EP-cut", name)
		}
		check(pass, in)
	}
	return nil, nil
}

// collect walks one body recording append/commit/mutation events in
// source order, plus outgoing local calls for the mutator fixpoint.
func collect(pass *analysis.Pass, byObj map[*types.Func]*funcInfo, in *funcInfo) {
	ast.Inspect(in.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			classifyCall(pass, byObj, in, n)
		case *ast.AssignStmt:
			// A write through a map field named "home" is the journal's
			// checkpointed image.
			for _, lhs := range n.Lhs {
				if idx, ok := lhs.(*ast.IndexExpr); ok {
					if sel, ok := idx.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "home" {
						if _, isMap := typeUnder(pass, idx.X).(*types.Map); isMap {
							in.mutates = true
							in.events = append(in.events, event{evMutate, lhs.Pos(), "write to the checkpoint image (home)"})
						}
					}
				}
			}
		}
		return true
	})
}

func typeUnder(pass *analysis.Pass, e ast.Expr) types.Type {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func classifyCall(pass *analysis.Pass, byObj map[*types.Func]*funcInfo, in *funcInfo, call *ast.CallExpr) {
	fn := analysis.StaticCallee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}

	label := analysis.FuncLabel(fn)

	// The append/commit primitives, local or imported.
	if li, local := byObj[fn]; local {
		in.calls = append(in.calls, fn)
		switch {
		case li.appendP:
			in.events = append(in.events, event{evAppend, call.Pos(), label})
			return
		case li.commitP:
			in.events = append(in.events, event{evCommit, call.Pos(), label})
			return
		}
	} else {
		if pass.ImportObjectFact(fn, &JournalAppend{}) {
			in.events = append(in.events, event{evAppend, call.Pos(), label})
			return
		}
		if pass.ImportObjectFact(fn, &CommitPoint{}) {
			in.events = append(in.events, event{evCommit, call.Pos(), label})
			return
		}
	}

	// Sink primitives, by receiver.
	if key, ok := sinkFor(fn); ok {
		in.mutates = true
		in.events = append(in.events, event{evMutate, call.Pos(), key})
		return
	}

	// Calls to known mutators (local handled by fixpoint; imported by fact).
	if _, local := byObj[fn]; !local {
		if pass.ImportObjectFact(fn, &MutatesPersistent{}) {
			in.mutates = true
			in.events = append(in.events, event{evMutate, call.Pos(), label})
		}
	}
}

// sinkFor matches fn against the sink table.
func sinkFor(fn *types.Func) (string, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	path := named.Obj().Pkg().Path()
	key := sinkKey{path[strings.LastIndex(path, "/")+1:], named.Obj().Name(), fn.Name()}
	desc, ok := sinks[key]
	return desc, ok
}

// check applies the two ordering rules to one function's event stream.
func check(pass *analysis.Pass, in *funcInfo) {
	var firstAppend, commitAt token.Pos
	var commitDesc string
	hasAppend, hasCommit := false, false
	for _, e := range in.events {
		switch e.kind {
		case evAppend:
			if !hasAppend {
				firstAppend, hasAppend = e.pos, true
			}
		case evCommit:
			if !hasCommit {
				commitAt, hasCommit, commitDesc = e.pos, true, e.desc
			}
		}
	}

	// Rule 1: journal-before-datastore. Exempt inside the append
	// primitive itself: its interior is the append mechanics.
	if hasAppend && !in.appendP {
		for _, e := range in.events {
			if e.kind == evMutate && e.pos < firstAppend {
				pass.Reportf(e.pos, "persistent mutation (%s) precedes the journal append in %s; log first, then mutate, or crash recovery replays a hole", e.desc, in.decl.Name.Name)
			}
		}
	}

	// Rule 2: nothing moves after the commit point. Exempt inside the
	// commit primitive itself.
	if hasCommit && !in.commitP {
		for _, e := range in.events {
			if e.pos <= commitAt {
				continue
			}
			switch e.kind {
			case evMutate:
				pass.Reportf(e.pos, "persistent mutation (%s) after the commit point (%s); the EP-cut is sealed at commit, move this before it", e.desc, commitDesc)
			case evAppend:
				pass.Reportf(e.pos, "journal append (%s) after the commit point (%s); the transaction is already sealed", e.desc, commitDesc)
			}
		}
	}
}
