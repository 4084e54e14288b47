// Package persistorder enforces the store orderings behind LightPC's crash
// consistency and its journaling and PMDK baselines, interprocedurally.
//
// The EP-cut is sound only if the BCB commit word is the last persistent
// store of Stop, written after every dirty cache line and row buffer is
// flushed and memory is synchronized (DESIGN.md "EP-cut soundness",
// internal/sng/sng.go). The journal and the undo-logged pool rest on the
// same seal plus "log before you mutate". A reordering bug here is
// invisible to tests unless a power failure lands in the reordered window —
// exactly the class of persistent memory bug that survives testing.
//
// Which rules apply depends on a strictness table keyed by the import
// path's last element, so lint fixtures can model the packages:
//
//	sng checkpoint journal pmdk psm   after a call to a commit point, no
//	                                  persistent mutation and no journal
//	                                  append; a function named Commit or
//	                                  TxCommit carries //lightpc:commitpoint
//	sng checkpoint                    + a commit-point call is dominated by
//	                                  a flush or sync, and no spend(...)
//	                                  deadline verdict is discarded
//	journal pmdk psm                  + in a function that appends to a
//	                                  log, no persistent mutation precedes
//	                                  the first append
//
// A flush is a call whose callee name, or an identifier in its arguments,
// mentions flush or sync (s.P.Flush(...), run.spend(flush),
// run.spend(sync), memSync()). Dominance is structural: the flush must run
// on every path that reaches the commit, so a flush in a loop body, in a
// branch or case that does not enclose the commit, or in a function
// literal does not count. Their commit primitives flush inside, as PMDK's
// TX_END does, so the journaling packages are not held to it. spend
// returns false once the PSU hold-up window has expired; discarding that
// result keeps mutating state after the rails dropped (`_ =` discards it
// explicitly, for a verdict that provably only times).
//
// The anchors are declared in source:
//
//	//lightpc:journalappend  — this function IS the append primitive
//	//lightpc:commitpoint    — this function IS the commit primitive
//
// Both export facts, so sng writing the kernel's commit word
// (kernel.Bootloader.Commit, the EP-cut seal) or pmdk calling across a
// package boundary is still seen. Annotated primitives are exempt inside:
// their interior is the mechanics of the append or commit itself.
//
// A persistent mutation is a call to a sink that writes the simulated
// persistent media, a store to a field the EP-cut captures (both matched
// by their owning type, not by name), a write to the journal's checkpoint
// image, or a call to a function carrying the MutatesPersistent fact,
// which propagates through the call graph within and across packages, so
// wrapping a sink in a helper does not hide it.
//
// Each body is walked once. A function literal is walked where it is
// written: its stores are its enclosing function's, ordered at the
// literal, but as it may run never, or later, a flush inside it dominates
// nothing outside it.
//
// Escape hatch, for code the rules misread:
//
//	b.Commit() //lint:allow persistorder commit word lives in an uncached bank
package persistorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the persistorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "persistorder",
	Doc:  "nothing persistent moves after a commit point; EP-cut commits follow a flush; journal appends precede persistent mutations",
	Run:  run,
}

// MutatesPersistent marks a function that (transitively) writes the
// simulated persistent media or the EP-cut state.
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

// row is a line of the strictness table. Every row other than outside
// forbids mutations and appends after a commit point.
type row int

const (
	outside row = iota
	epCut       // + commits follow a flush; spend verdicts are checked
	logged      // + log appends precede mutations
)

var rows = map[string]row{
	"sng": epCut, "checkpoint": epCut,
	"journal": logged, "pmdk": logged, "psm": logged,
}

// member names a method or field by its owner's package (import path's
// last element), the owning type, and its own name.
type member struct{ pkg, typ, name string }

// sinks are the persistent stores: the media write primitives, and the
// kernel fields the EP-cut captures (storing one after the commit tears
// the cut).
var sinks = map[member]bool{
	{"kernel", "Bank", "Write"}:                 true,
	{"pmemdimm", "SectorDevice", "WriteSector"}: true,
	{"linetab", "Slab", "Put"}:                  true,
	{"psm", "DataStore", "WriteData"}:           true,
	{"psm", "PSM", "Write"}:                     true,

	{"kernel", "Kernel", "PersistFlag"}: true,
	{"kernel", "Core", "KTaskPtr"}:      true,
	{"kernel", "Core", "KStackPtr"}:     true,
	{"kernel", "Core", "DirtyLines"}:    true,
	{"kernel", "Core", "MRegs"}:         true,
}

type eventKind int

const (
	evStore eventKind = iota // a sink, or a call that may mutate
	evFlush
	evAppend
	evCommit
)

type event struct {
	kind   eventKind
	pos    token.Pos
	desc   string
	mut    bool      // a sink, the home image, or an imported MutatesPersistent function
	callee *funcInfo // a local callee, which mutates once the fixpoint says so
}

func (e event) mutates() bool { return e.mut || e.callee != nil && e.callee.mutates }

// isMutation reports whether e is a persistent mutation for the ordering
// rules; calls to the append and commit primitives are their own events.
func (e event) isMutation() bool { return e.kind != evAppend && e.kind != evCommit && e.mutates() }

type funcInfo struct {
	decl    *ast.FuncDecl
	obj     *types.Func
	appendP bool // //lightpc:journalappend
	commitP bool // //lightpc:commitpoint
	events  []event
	// regions are the nodes that may run other than exactly once where
	// they are written: branch, case and loop bodies, and function
	// literals.
	regions []ast.Node
	mutates bool // contains a mutation (fixpoint over local calls)
}

func run(pass *analysis.Pass) (interface{}, error) {
	path := pass.Pkg.Path()
	r := rows[path[strings.LastIndex(path, "/")+1:]]

	// Annotations first, so intra-package calls to the primitives
	// classify correctly regardless of declaration order.
	var infos []*funcInfo
	byObj := make(map[*types.Func]*funcInfo)
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
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
			}
			infos = append(infos, in)
			byObj[obj] = in
			if in.appendP {
				pass.ExportObjectFact(obj, &JournalAppend{})
			}
			if in.commitP {
				pass.ExportObjectFact(obj, &CommitPoint{})
			}
		}
	}

	for _, in := range infos {
		walk(pass, byObj, in, r == epCut)
	}

	// Fixpoint: mutators propagate through local static calls.
	for changed := true; changed; {
		changed = false
		for _, in := range infos {
			if !in.mutates && slices.ContainsFunc(in.events, event.mutates) {
				in.mutates, changed = true, true
			}
		}
	}
	for _, in := range infos {
		if in.mutates {
			pass.ExportObjectFact(in.obj, &MutatesPersistent{})
		}
	}

	if r == outside {
		return nil, nil
	}
	for _, in := range infos {
		// Rot guard: commit-shaped names must be annotated commit points.
		if name := in.decl.Name.Name; (name == "Commit" || name == "TxCommit") && !in.commitP {
			pass.Reportf(in.decl.Pos(), "%s looks like a commit point but lacks //lightpc:commitpoint; annotate it so callers are checked against the EP-cut", name)
		}
		check(pass, in, r)
	}
	return nil, nil
}

// walk records one body's events in source order and its regions. A
// discarded spend verdict is reported on the spot where checkSpend holds.
func walk(pass *analysis.Pass, byObj map[*types.Func]*funcInfo, in *funcInfo, checkSpend bool) {
	ast.Inspect(in.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			in.regions = append(in.regions, n.Body)
			if n.Else != nil {
				in.regions = append(in.regions, n.Else)
			}
		case *ast.ForStmt:
			in.regions = append(in.regions, n.Body)
			if n.Post != nil {
				in.regions = append(in.regions, n.Post)
			}
		case *ast.RangeStmt:
			in.regions = append(in.regions, n.Body)
		case *ast.CaseClause, *ast.CommClause:
			in.regions = append(in.regions, n)
		case *ast.FuncLit:
			in.regions = append(in.regions, n.Body)
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && checkSpend {
				if name := calleeName(call); name == "spend" || name == "Spend" {
					pass.Reportf(call.Pos(), "result of %s(...) discarded: spend reports whether the PSU hold-up deadline still holds, and ignoring it mutates state after the rails dropped", name)
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				in.fieldStore(pass, lhs)
			}
		case *ast.IncDecStmt:
			in.fieldStore(pass, n.X)
		case *ast.CallExpr:
			in.call(pass, byObj, n)
		}
		return true
	})
}

// fieldStore records an assignment to a field in the sink table.
func (in *funcInfo) fieldStore(pass *analysis.Pass, lhs ast.Expr) {
	target := lhs
	if idx, ok := target.(*ast.IndexExpr); ok {
		target = idx.X
	}
	sel, ok := target.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if s := pass.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		if desc, ok := sink(s.Recv(), sel.Sel.Name); ok {
			in.events = append(in.events, event{kind: evStore, pos: lhs.Pos(), desc: desc, mut: true})
		}
	}
}

// call records a flush, a call to a primitive, or a call that may mutate.
func (in *funcInfo) call(pass *analysis.Pass, byObj map[*types.Func]*funcInfo, call *ast.CallExpr) {
	e := event{kind: evStore, pos: call.Pos()}
	if flushes(call) {
		e.kind = evFlush
	}
	if fn := analysis.StaticCallee(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil {
		e.desc = analysis.FuncLabel(fn)
		if local := byObj[fn]; local != nil {
			e.callee = local
			switch {
			case local.appendP:
				e.kind = evAppend
			case local.commitP:
				e.kind = evCommit
			}
		} else {
			switch {
			case pass.ImportObjectFact(fn, &JournalAppend{}):
				e.kind = evAppend
			case pass.ImportObjectFact(fn, &CommitPoint{}):
				e.kind = evCommit
			}
			e.mut = pass.ImportObjectFact(fn, &MutatesPersistent{})
		}
		if sig := fn.Type().(*types.Signature); sig.Recv() != nil {
			_, isSink := sink(sig.Recv().Type(), fn.Name())
			e.mut = e.mut || isSink
		}
	}
	if homeWrite(pass, call) {
		e.mut, e.desc = true, "write to the checkpoint image (home)"
	}
	if e.kind != evStore || e.mut || e.callee != nil {
		in.events = append(in.events, e)
	}
}

// sink looks a member of t up in the sink table.
func sink(t types.Type, name string) (string, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	path := named.Obj().Pkg().Path()
	m := member{path[strings.LastIndex(path, "/")+1:], named.Obj().Name(), name}
	return m.pkg + "." + m.typ + "." + m.name, sinks[m]
}

// homeWrite reports whether call writes the journal's checkpointed image:
// a Set or Delete on a wordtab.Table field named "home". (The volatile
// image is a Table too, so Table writes in general are not sinks.)
func homeWrite(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Set" && sel.Sel.Name != "Delete" {
		return false
	}
	field, ok := sel.X.(*ast.SelectorExpr)
	if !ok || field.Sel.Name != "home" {
		return false
	}
	named, ok := pass.TypesInfo.TypeOf(field).(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Name() != "Table" {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path[strings.LastIndex(path, "/")+1:] == "wordtab"
}

// flushes reports whether call is a flush or sync barrier: its callee's
// name, or an identifier in its arguments, says so. The arguments cover
// run.spend(flush) and run.spend(sync), where the barrier's charge is
// spent on the deadline clock.
func flushes(call *ast.CallExpr) bool {
	found := barrier(calleeName(call))
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && barrier(id.Name) {
				found = true
			}
			_, lit := n.(*ast.FuncLit)
			return !found && !lit
		})
	}
	return found
}

func barrier(name string) bool {
	name = strings.ToLower(name)
	return strings.Contains(name, "flush") || strings.Contains(name, "sync")
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// check applies row r's ordering rules to one function's events, at most
// one finding per event. The commit rules are exempt inside the commit
// primitive and the append rule inside the append primitive: their
// interiors are the mechanics of the commit or append itself.
func check(pass *analysis.Pass, in *funcInfo, r row) {
	var commit, firstAppend *event
	for i := range in.events {
		e := &in.events[i]
		if e.kind == evCommit && commit == nil && !in.commitP {
			commit = e
		}
		if e.kind == evAppend && firstAppend == nil && !in.appendP {
			firstAppend = e
		}
	}
	for _, e := range in.events {
		switch {
		case e.kind == evCommit && r == epCut && !in.commitP && !in.flushed(e.pos):
			pass.Reportf(e.pos, "EP-cut ordering: %s is not dominated by a cache/row-buffer flush or memory sync; the commit word must be the last store after a full flush", e.desc)
		case commit != nil && e.pos > commit.pos && e.isMutation():
			pass.Reportf(e.pos, "persistent mutation (%s) after the commit point (%s); the EP-cut is sealed at commit, move this before it", e.desc, commit.desc)
		case commit != nil && e.pos > commit.pos && e.kind == evAppend:
			pass.Reportf(e.pos, "journal append (%s) after the commit point (%s); the transaction is already sealed", e.desc, commit.desc)
		case r == logged && firstAppend != nil && e.pos < firstAppend.pos && e.isMutation():
			pass.Reportf(e.pos, "persistent mutation (%s) precedes the journal append in %s; log first, then mutate, or crash recovery replays a hole", e.desc, in.decl.Name.Name)
		}
	}
}

// flushed reports whether a flush runs on every path to pos: one comes
// first, and no region holds it without also holding pos.
func (in *funcInfo) flushed(pos token.Pos) bool {
	for _, f := range in.events {
		if f.kind == evFlush && f.pos < pos && !slices.ContainsFunc(in.regions, func(r ast.Node) bool {
			return r.Pos() <= f.pos && f.pos < r.End() && !(r.Pos() <= pos && pos < r.End())
		}) {
			return true
		}
	}
	return false
}
