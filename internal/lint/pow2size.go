package lint

import (
	"go/ast"
	"go/constant"
	"strings"
)

// Bitmap size bounds mirrored from internal/bitmap: sizes below one
// machine word are statistically useless, sizes above 2^30 bits exhaust
// memory, and non-powers-of-two break the replication expansion of
// Section III-A (bit h mod m of the expansion must equal bit h mod l of
// the original, which requires l | m with both powers of two).
const (
	pow2Min = 64
	pow2Max = 1 << 30
)

// Pow2Size returns the analyzer flagging constant arguments to bitmap.New
// and bitmap.MustNew that are not powers of two in [64, 1<<30]. Run-time
// computed sizes are out of scope (the constructor validates them); the
// rule exists to turn latent constructor errors and MustNew panics into
// compile-time findings.
func Pow2Size() *Analyzer {
	return &Analyzer{
		Name: "pow2size",
		Doc:  "bitmap sizes must be powers of two in [64, 1<<30]",
		Run:  runPow2Size,
	}
}

func runPow2Size(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := bitmapCtor(pass, call)
			if name == "" || len(call.Args) == 0 {
				return true
			}
			// New and MustNew both take the size as their sole argument.
			arg := call.Args[0]
			tv, ok := pass.Pkg.Info.Types[arg]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
				return true
			}
			n64, ok := constant.Int64Val(tv.Value)
			if !ok {
				pass.Reportf(arg.Pos(), "bitmap.%s size overflows int64", name)
				return true
			}
			switch {
			case n64 < pow2Min || n64 > pow2Max:
				pass.Reportf(arg.Pos(),
					"bitmap.%s size %d outside [%d, 1<<30]", name, n64, pow2Min)
			case n64&(n64-1) != 0:
				pass.Reportf(arg.Pos(),
					"bitmap.%s size %d is not a power of two; replication expansion (Section III-A) requires power-of-two sizes", name, n64)
			}
			return true
		})
	}
}

// bitmapCtor returns "New" or "MustNew" when call invokes the bitmap
// package's constructor, and "" otherwise. Both qualified calls
// (bitmap.New from other packages) and unqualified calls (New inside the
// bitmap package itself) are recognized.
func bitmapCtor(pass *Pass, call *ast.CallExpr) string {
	obj := calleeFunc(pass, call)
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if !strings.HasSuffix(obj.Pkg().Path(), "internal/bitmap") {
		return ""
	}
	if name := obj.Name(); name == "New" || name == "MustNew" {
		return name
	}
	return ""
}
