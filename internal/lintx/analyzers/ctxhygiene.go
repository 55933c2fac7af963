package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lintx"
)

// CtxHygiene enforces two service-spine rules in internal/* library
// code:
//
//  1. no context.Background() or context.TODO() outside tests —
//     library code must thread the caller's context so cancellation
//     and deadlines propagate end-to-end (a detached context is
//     occasionally legitimate, e.g. a server-lifetime scope; such
//     sites carry a //lint:ignore ctxhygiene rationale);
//  2. no mutation of another package's Stats-style counters — a
//     *Stats struct's fields are owned by its package's mutex
//     helpers, and a bare cross-package increment races.
//
// cmd/* is exempt: a main function is exactly where a root context is
// created.
var CtxHygiene = &lintx.Analyzer{
	Name: "ctxhygiene",
	Doc:  "internal packages must thread caller contexts and must not mutate foreign Stats counters",
	Run:  runCtxHygiene,
}

func runCtxHygiene(pass *lintx.Pass) error {
	if !strings.Contains(pass.Pkg.Path(), "internal/") && !strings.HasPrefix(pass.Pkg.Path(), "internal/") {
		return nil
	}
	for _, f := range pass.Files {
		isTest := pass.IsTestFile(f.Pos())
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isTest {
					return true
				}
				fn := calleeFunc(pass.Info, n)
				if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
					(fn.Name() == "Background" || fn.Name() == "TODO") {
					pass.Reportf(n.Pos(), "context.%s in library code: thread the caller's context so cancellation propagates", fn.Name())
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkStatsWrite(pass, lhs)
				}
			case *ast.IncDecStmt:
				checkStatsWrite(pass, n.X)
			}
			return true
		})
	}
	return nil
}

// checkStatsWrite reports a write to a field of a Stats-named struct
// type declared in a different package.
func checkStatsWrite(pass *lintx.Pass, lhs ast.Expr) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if !strings.HasSuffix(obj.Name(), "Stats") || obj.Pkg() == nil || obj.Pkg() == pass.Pkg {
		return
	}
	pass.Reportf(sel.Pos(), "mutation of %s.%s.%s outside its owning package: counters belong to %s's mutex helpers",
		obj.Pkg().Name(), obj.Name(), s.Obj().Name(), obj.Pkg().Name())
}
