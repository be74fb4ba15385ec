package lint

import (
	"go/ast"
	"go/types"
)

// ErrDrop returns the analyzer flagging silently dropped errors in
// non-test files:
//
//   - a call used as a bare statement whose results include an error
//     ("unchecked"), and
//   - an assignment that discards every result with blank identifiers
//     while at least one of them is an error ("_ = f()", "_, _ = g()").
//
// Partial-use assignments such as "sd, _ = StdDev(xs)" are deliberate and
// not flagged. Direct `defer f()` / `go f()` calls are skipped — there is
// no place to put the error — but closures launched by them are analyzed
// like any other body. Printing to stdout/stderr via fmt, and writers
// documented never to fail (strings.Builder, bytes.Buffer), are exempt.
//
// Dropped errors matter more here than in most codebases: an ignored
// upload or unmarshal error silently removes records from the estimators,
// which shows up as a biased traffic estimate rather than a crash.
func ErrDrop() *Analyzer {
	return &Analyzer{
		Name: "errdrop",
		Doc:  "errors must be handled, returned, or explicitly allowed",
		Run:  runErrDrop,
	}
}

func runErrDrop(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, ok := ast.Unparen(n.X).(*ast.CallExpr)
				if !ok {
					return true
				}
				if returnsError(pass, call) && !errExempt(pass, call) {
					pass.Reportf(n.Pos(), "result of %s includes an error that is not checked",
						calleeLabel(pass, call))
				}
			case *ast.AssignStmt:
				if !allBlank(n.Lhs) {
					return true
				}
				for _, rhs := range n.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok || !returnsError(pass, call) || errExempt(pass, call) {
						continue
					}
					pass.Reportf(n.Pos(), "error from %s discarded with blank identifier",
						calleeLabel(pass, call))
				}
			}
			return true
		})
	}
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return len(exprs) > 0
}

// returnsError reports whether any result of the call has type error.
func returnsError(pass *Pass, call *ast.CallExpr) bool {
	t := pass.TypeOf(call)
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// errExempt lists call targets whose error results are documented or
// conventionally safe to ignore.
func errExempt(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return false
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" {
		switch fn.Name() {
		case "Print", "Printf", "Println":
			return true // write to os.Stdout; nothing actionable on failure
		case "Fprint", "Fprintf", "Fprintln":
			// Exempt only when demonstrably writing to the process's
			// standard streams.
			if len(call.Args) > 0 && isStdStream(pass, call.Args[0]) {
				return true
			}
		}
	}
	if recv := receiverNamed(fn); recv != "" {
		switch recv {
		case "strings.Builder", "bytes.Buffer":
			return true // Write* documented to always return nil error
		}
	}
	return false
}

// calleeFunc resolves the called function or method object, if static.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	fn, _ := staticCallee(pass.Pkg.Info, call)
	return fn
}

// receiverNamed returns "pkg.Type" for a method's receiver base type.
func receiverNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Name() + "." + named.Obj().Name()
}

// isStdStream matches the expressions os.Stdout and os.Stderr.
func isStdStream(pass *Pass, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.ObjectOf(sel.Sel)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "os" {
		return false
	}
	return obj.Name() == "Stdout" || obj.Name() == "Stderr"
}

// calleeLabel renders the callee for a diagnostic message.
func calleeLabel(pass *Pass, call *ast.CallExpr) string {
	if fn := calleeFunc(pass, call); fn != nil {
		if recv := receiverNamed(fn); recv != "" {
			return "(" + recv + ")." + fn.Name()
		}
		if pkg := fn.Pkg(); pkg != nil && pkg.Path() != pass.Pkg.Path {
			return pkg.Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	return "call"
}
