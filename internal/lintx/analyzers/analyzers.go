// Package analyzers holds the project's invariant checkers: the four
// ewlint analyzers that mechanize the determinism, memo-key,
// context-hygiene and structured-logging rules the codebase previously
// enforced only by convention (see DESIGN.md §10).
package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lintx"
)

// All returns every analyzer in the suite, in stable order.
func All() []*lintx.Analyzer {
	return []*lintx.Analyzer{
		Determinism,
		MemoKey,
		CtxHygiene,
		LogField,
	}
}

// ByName resolves analyzer names (comma-separable by the caller) to
// analyzers; unknown names return nil.
func ByName(name string) *lintx.Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// calleeFunc resolves a call expression's callee to the *types.Func
// it invokes (package function or method), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isPkgFunc reports whether the call invokes the named package-level
// function of a package with the given name (matching by package name
// rather than full path keeps the analyzers testable against fixture
// packages while being exact on this module's single namespace).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgName, funcName string) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return false // methods don't count: only package-level functions match
	}
	return fn.Pkg().Name() == pkgName && fn.Name() == funcName
}

// pathSegments splits an import path, trimming the "_test" suffix an
// external test package carries.
func pathSegments(pkgPath string) []string {
	segs := strings.Split(strings.TrimSuffix(pkgPath, "_test"), "/")
	return segs
}

// funcDecls yields every function declaration with a body in the
// pass's files.
func funcDecls(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}
