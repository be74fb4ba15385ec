package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineHygiene returns the analyzer for `go` statements in non-test
// files. It reports a goroutine with no visible completion linkage —
// nothing in the launch references a sync.WaitGroup, sends or receives
// on a channel, or takes a context.Context. Such fire-and-forget
// goroutines are how the transport and sim layers would leak work past
// Close/shutdown. (Loop-variable capture needs no rule: go.mod declares
// go 1.23, and since Go 1.22 every iteration has its own variables.)
//
// The linkage check is syntactic and local to the launch expression; a
// goroutine coordinated through struct state it mutates under lock should
// carry a //ptmlint:allow goroutinehygiene directive explaining the
// lifecycle.
func GoroutineHygiene() *Analyzer {
	return &Analyzer{
		Name: "goroutinehygiene",
		Doc:  "goroutines need a visible completion linkage",
		Run:  runGoroutineHygiene,
	}
}

func runGoroutineHygiene(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok && !hasCompletionLinkage(pass, g) {
				pass.Reportf(g.Pos(),
					"goroutine has no visible completion linkage (WaitGroup, channel send/receive, or context)")
			}
			return true
		})
	}
}

// hasCompletionLinkage scans the launch expression (the called function
// literal or the call's arguments) for evidence that someone can wait for
// or cancel the goroutine.
func hasCompletionLinkage(pass *Pass, g *ast.GoStmt) bool {
	found := false
	ast.Inspect(g.Call, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			// Ranging over a channel is a receive.
			if t := pass.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if fn := calleeFunc(pass, n); fn != nil {
				if recv := receiverNamed(fn); recv == "sync.WaitGroup" {
					found = true
				}
				if fn.Name() == "Done" || fn.Name() == "Deadline" || fn.Name() == "Err" {
					if isContextExpr(pass, n.Fun) {
						found = true
					}
				}
			}
		case *ast.Ident:
			if obj := pass.Pkg.Info.Uses[n]; obj != nil && isContextType(obj.Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isContextExpr(pass *Pass, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := pass.TypeOf(sel.X)
	return t != nil && isContextType(t)
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
