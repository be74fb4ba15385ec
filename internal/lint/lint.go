// Package lint implements ptmlint, a repo-specific static-analysis pass
// that enforces invariants of the measurement system which the Go type
// system cannot express:
//
//   - privacy-critical packages must draw randomness from crypto/rand
//     (rule cryptorand), or the one-time MAC / index-value unlinkability
//     argument of Section V collapses;
//   - bitmap sizes must be powers of two in [64, 1<<30] (rule pow2size),
//     or the replication-based expansion of Section III-A is undefined;
//   - errors must not be silently dropped (rule errdrop);
//   - goroutines must have a visible completion linkage (rule
//     goroutinehygiene);
//   - whole-program contracts: private state never reaches a public sink
//     (privflow), lock order, guarded fields, atomics and RCU publication
//     (the concguard rules), and hot-path performance (the perfguard
//     rules), all read from one program model built once per Run.
//
// The framework is deliberately dependency-free: packages are loaded with
// `go list -deps -export -json` (the toolchain supplies export data for
// every dependency, so only the linted package itself is type-checked from
// source) and analyzed with go/ast + go/types.
//
// Findings can be suppressed line-by-line with a directive comment on the
// offending line or the line immediately above it:
//
//	//ptmlint:allow <rule> [reason...]
//
// Suppressions are intentionally narrow; there is no file- or
// package-level escape hatch.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Related is one supporting location of a diagnostic — for privflow, one
// hop of the source→sink witness path.
type Related struct {
	Pos  token.Position
	Note string
}

// Diagnostic is one finding, addressed by position and rule name. Related
// carries supporting locations (witness-path hops) in flow order.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
	Related []Related
}

// String renders the canonical "file:line: [rule] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
}

// Analyzer is one named checker. Per-package analyzers set Run and inspect
// one type-checked package at a time; whole-program analyzers set
// RunProgram instead and see every loaded package at once (including
// module dependencies loaded for their cross-package facts), which is what
// an interprocedural rule like privflow needs. Exactly one of Run and
// RunProgram is non-nil.
type Analyzer struct {
	// Name is the rule name used in diagnostics and allow directives.
	Name string
	// Doc is a one-line description of the invariant the rule protects.
	Doc string
	// Run analyzes pass.Pkg.
	Run func(pass *Pass)
	// RunProgram analyzes all loaded packages together.
	RunProgram func(pass *ProgramPass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Fset     *token.FileSet
	Pkg      *Package
	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at pos under the running analyzer's rule name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Pkg.Info.TypeOf(e)
}

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.Pkg.Info.ObjectOf(id)
}

// ProgramPass carries the whole loaded program through one whole-program
// analyzer. Pkgs includes dependency packages of the enclosing module
// (Package.Dep == true) so that analyzers can consume their declarations,
// bodies, and //ptm:* facts; findings should be anchored in non-dep
// packages.
type ProgramPass struct {
	Fset     *token.FileSet
	Pkgs     []*Package
	prog     *program
	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Report records a finding at pos with an optional witness path.
func (p *ProgramPass) Report(pos token.Pos, related []Related, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.analyzer.Name,
		Message: fmt.Sprintf(format, args...),
		Related: related,
	})
}

// directivePrefix introduces a suppression comment.
const directivePrefix = "ptmlint:allow"

// allowedAt reports whether rule is suppressed for a diagnostic on the
// given file line: a //ptmlint:allow comment on the same line or the line
// directly above covers it. The second result is the line the matching
// directive sits on, for the stale-directive audit.
func (pkg *Package) allowedAt(pos token.Position, rule string) (bool, int) {
	lines := pkg.allow[pos.Filename]
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, r := range lines[l] {
			if r == rule {
				return true, l
			}
		}
	}
	return false, 0
}

// scanDirectives indexes //ptmlint:allow comments by file and line.
func scanDirectives(fset *token.FileSet, files []*ast.File) map[string]map[int][]string {
	out := make(map[string]map[int][]string)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, directivePrefix))
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				m := out[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					out[pos.Filename] = m
				}
				// The first field is a comma-separated rule list; anything
				// after the first space is free-form reason text.
				for _, rule := range strings.Split(fields[0], ",") {
					if rule != "" {
						m[pos.Line] = append(m[pos.Line], rule)
					}
				}
			}
		}
	}
	return out
}

// StaleDirective is the pseudo-rule name under which the directive audit
// reports //ptmlint:allow comments that no longer suppress anything.
const StaleDirective = "stale-directive"

// UnknownDirective is the pseudo-rule name under which the directive
// audit reports //ptm: annotations whose kind no analyzer understands —
// a typo like //ptm:guardedBy would otherwise silently disable the
// contract it was meant to declare.
const UnknownDirective = "unknown-directive"

// Run applies every analyzer to every package and returns the surviving
// diagnostics sorted by file, line, and rule. Per-package analyzers skip
// dependency packages (loaded only for their cross-package facts);
// whole-program analyzers run once over the full package set.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return run(fset, pkgs, analyzers, false)
}

// RunAudited is Run plus the suppression audit: after the analyzers
// finish, every //ptmlint:allow directive that (a) names a rule that ran
// in this invocation but suppressed no finding, or (b) names a rule that
// does not exist, is itself reported as a stale-directive finding. The
// escape hatch therefore cannot rot: when the code below a directive is
// fixed, the directive must be removed in the same change.
func RunAudited(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return run(fset, pkgs, analyzers, true)
}

func run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer, audit bool) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if pkg.Dep {
			continue
		}
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{Fset: fset, Pkg: pkg, analyzer: a, diags: &diags}
			a.Run(pass)
		}
	}
	prog := buildProgram(fset, pkgs)
	for _, a := range analyzers {
		for _, e := range prog.annotErrs {
			if e.rule == a.Name {
				diags = append(diags, Diagnostic{Pos: fset.Position(e.pos), Rule: a.Name, Message: e.msg})
			}
		}
		if a.RunProgram == nil {
			continue
		}
		pass := &ProgramPass{Fset: fset, Pkgs: pkgs, prog: prog, analyzer: a, diags: &diags}
		a.RunProgram(pass)
	}

	// used[file][line][rule] marks directives that suppressed a finding.
	used := make(map[string]map[int]map[string]bool)
	kept := diags[:0]
	for _, d := range diags {
		pkg := byFile(pkgs, d.Pos.Filename)
		if pkg != nil {
			if ok, line := pkg.allowedAt(d.Pos, d.Rule); ok {
				byLine := used[d.Pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					used[d.Pos.Filename] = byLine
				}
				if byLine[line] == nil {
					byLine[line] = make(map[string]bool)
				}
				byLine[line][d.Rule] = true
				continue
			}
		}
		kept = append(kept, d)
	}
	if audit {
		kept = append(kept, auditDirectives(pkgs, analyzers, used)...)
		kept = append(kept, auditFacts(fset, prog)...)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return kept
}

// auditDirectives reports stale //ptmlint:allow directives. A directive is
// stale for rule r when r ran in this invocation and the directive
// suppressed none of r's findings, or when r is not a known rule at all
// (a typo would otherwise silently disable a suppression forever). Rules
// that exist but were excluded from this invocation (-rules subsets) are
// not audited: the run cannot tell whether they would fire.
func auditDirectives(pkgs []*Package, analyzers []*Analyzer, used map[string]map[int]map[string]bool) []Diagnostic {
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		if pkg.Dep {
			continue
		}
		for file, byLine := range pkg.allow {
			for line, rules := range byLine {
				for _, r := range rules {
					switch {
					case ran[r] && !used[file][line][r]:
						out = append(out, Diagnostic{
							Pos:     token.Position{Filename: file, Line: line},
							Rule:    StaleDirective,
							Message: fmt.Sprintf("//ptmlint:allow %s no longer suppresses any finding; remove the directive", r),
						})
					case !ran[r] && !known[r]:
						out = append(out, Diagnostic{
							Pos:     token.Position{Filename: file, Line: line},
							Rule:    StaleDirective,
							Message: fmt.Sprintf("//ptmlint:allow names unknown rule %q", r),
						})
					}
				}
			}
		}
	}
	return out
}

// auditFacts reports //ptm: annotation comments whose kind no analyzer
// understands, as the annotation scan found them. Unknown kinds within
// edit distance 2 of a known fact get a "did you mean" suggestion.
func auditFacts(fset *token.FileSet, prog *program) []Diagnostic {
	var out []Diagnostic
	for _, n := range prog.unknown {
		msg := fmt.Sprintf("unknown //ptm: directive %q", n.kind)
		if best := closestFact(n.kind); best != "" {
			msg += fmt.Sprintf(" (did you mean %q?)", best)
		}
		out = append(out, Diagnostic{Pos: fset.Position(n.pos), Rule: UnknownDirective, Message: msg})
	}
	return out
}

// closestFact returns the known fact kind within Levenshtein distance 2
// of kind (ASCII-case-insensitively), or "" when nothing is close.
func closestFact(kind string) string {
	best, bestDist := "", 3
	for _, k := range factKinds {
		if d := editDistance(strings.ToLower(kind), strings.ToLower(k)); d < bestDist {
			best, bestDist = k, d
		}
	}
	return best
}

// editDistance is the plain Levenshtein distance between two strings.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func byFile(pkgs []*Package, filename string) *Package {
	for _, p := range pkgs {
		if _, ok := p.allow[filename]; ok {
			return p
		}
		for _, f := range p.fileNames {
			if f == filename {
				return p
			}
		}
	}
	return nil
}

// All returns the full analyzer set in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Cryptorand(nil),
		Pow2Size(),
		ErrDrop(),
		GoroutineHygiene(),
		Privflow(),
		LockOrder(),
		GuardedBy(),
		AtomicMix(),
		RCU(),
		Noalloc(),
		Inline(),
		BCE(),
	}
}

// ByName resolves a comma-separated rule list against All; unknown names
// are an error.
func ByName(list string) ([]*Analyzer, error) {
	if list == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown rule %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}
