package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// calleeOf resolves the function or method a call invokes, or nil when the
// callee is dynamic (function value, interface method on an unknown type is
// still resolved — only computed function values return nil).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// isPkgFunc reports whether f is the package-level function pkgPath.name.
func isPkgFunc(f *types.Func, pkgPath, name string) bool {
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == pkgPath && f.Name() == name &&
		f.Type().(*types.Signature).Recv() == nil
}

// isMethodOn reports whether f is the named method of type pkgPath.typeName
// (value or pointer receiver).
func isMethodOn(f *types.Func, pkgPath, typeName, method string) bool {
	if f == nil || f.Name() != method {
		return false
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == typeName
}

// fieldOf returns the struct field a selector expression resolves to, or nil
// when the selector is not a field access.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// objOf resolves an identifier to its object (definition or use).
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// abortNameRE matches the channel names this project (and Go at large) uses
// for cancellation signals.
var abortNameRE = regexp.MustCompile(`(?i)(quit|done|stop|abort|cancel|clos|shutdown|exit)`)

// isRecvChan reports whether t is a channel that can be received from.
func isRecvChan(t types.Type) bool {
	ch, ok := t.Underlying().(*types.Chan)
	return ok && ch.Dir() != types.SendOnly
}

// errorIface is the universe error interface.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorExpr reports whether e's static type is an interface satisfying
// error (the `error` type itself or a superset of it).
func isErrorExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	if _, ok := tv.Type.Underlying().(*types.Interface); !ok {
		return false
	}
	return types.Implements(tv.Type, errorIface)
}

// internalSegment returns the path segment directly below the last
// "internal" element of an import path ("m/internal/core/x" → "core"), or ""
// when the path has no internal element.
func internalSegment(path string) string {
	segs := strings.Split(path, "/")
	for i := len(segs) - 2; i >= 0; i-- {
		if segs[i] == "internal" {
			return segs[i+1]
		}
	}
	return ""
}

// funcBodies yields every function body in the file — declarations and
// literals — paired with its type, calling visit once per function. Nested
// literals are visited separately from their enclosing function.
func funcBodies(file *ast.File, info *types.Info, visit func(fn *types.Func, ftype *ast.FuncType, body *ast.BlockStmt)) {
	ast.Inspect(file, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncDecl:
			if m.Body != nil {
				f, _ := info.Defs[m.Name].(*types.Func)
				visit(f, m.Type, m.Body)
			}
		case *ast.FuncLit:
			visit(nil, m.Type, m.Body)
		}
		return true
	})
}

// inspectShallow walks the statements of body without descending into
// nested function literals, so per-function analyses don't attribute a
// closure's statements to its enclosing function.
func inspectShallow(body ast.Node, f func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != body {
			return false
		}
		return f(n)
	})
}
