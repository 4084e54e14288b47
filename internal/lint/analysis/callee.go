package analysis

import (
	"go/ast"
	"go/types"
)

// StaticCallee resolves a call to the *types.Func it names: a package
// function, a method, or an interface method (the caller decides whether an
// interface hop counts as static). It returns nil for builtins, conversions
// and calls through func values.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// FuncLabel renders fn as pkg.Name or pkg.Recv.Name for diagnostics.
func FuncLabel(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() == nil {
		return name
	}
	return fn.Pkg().Name() + "." + name
}
