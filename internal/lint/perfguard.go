// perfguard: compiler-diagnostics-driven hot-path performance contracts.
//
// The fused join kernels, the atomic bitmap operations, the transport
// frame encoder, and the WAL append path only hit the paper's city-scale
// throughput targets if they stay allocation-free, inlinable, and free of
// bounds checks — contracts that until now lived in prose and a handful
// of AllocsPerRun tests. The three rules below make them machine-checked
// the same way privflow and concguard check the privacy and locking
// contracts:
//
//	//ptm:noalloc  the function's body must produce no heap-escape
//	               diagnostics, and it may only call callees that are
//	               themselves proven allocation-free (a greatest-fixpoint
//	               over the module call graph, reusing the concguard
//	               walker's call summaries) or that appear in a small
//	               trusted table of allocation-free stdlib routines.
//	               Error-terminated guard blocks are exempt (see below).
//	//ptm:inline   the compiler must report "can inline" for the
//	               function; failures quote the inliner's cost verdict.
//	//ptm:nobce    the SSA prove pass must eliminate every bounds check
//	               in the function (no IsInBounds / IsSliceInBounds).
//
// Rather than re-deriving escape analysis, inlining heuristics, and the
// prove pass, perfguard drives the real compiler and parses its own
// diagnostics: each annotated package is recompiled once with
//
//	go tool compile -p <path> -importcfg <cfg> -m=2 -d=ssa/check_bce
//
// and stderr is parsed with file:line:col anchoring. Invoking the
// compiler directly (with an importcfg assembled from the loader's
// export data) sidesteps the build cache, which would otherwise swallow
// the -m output on any cache hit. One compilation per package serves all
// three rules through a process-level cache.
//
// Cold regions: a block whose final statement returns a (syntactically
// non-nil) error, or panics, is an error-termination path — the paper's
// hot loops never take it. Allocations, untrusted calls, appends, and
// bounds checks inside such blocks are exempt, which keeps the idiomatic
// `if err != nil { return fmt.Errorf(...) }` guards legal inside
// annotated functions without weakening the contract on the success
// path.
//
// Known blind spots, covered by the AllocsPerRun tests that shadow every
// //ptm:noalloc annotation: escape analysis does not report append's
// backing-array growth or `go` statement allocation (both are therefore
// detected syntactically here and banned from hot regions), and calls
// through function values or interface methods have no static callee
// (interface-method call sites are conservatively reported, function
// values are invisible).
package lint

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Noalloc returns the heap-escape contract analyzer.
func Noalloc() *Analyzer {
	return &Analyzer{
		Name:       "noalloc",
		Doc:        "//ptm:noalloc functions must not allocate, nor call anything that does (compiler escape analysis + call-graph fixpoint)",
		RunProgram: runNoalloc,
	}
}

// Inline returns the inlinability contract analyzer.
func Inline() *Analyzer {
	return &Analyzer{
		Name:       "inline",
		Doc:        "//ptm:inline functions must be reported \"can inline\" by the compiler",
		RunProgram: runInline,
	}
}

// BCE returns the bounds-check-elimination contract analyzer.
func BCE() *Analyzer {
	return &Analyzer{
		Name:       "bce",
		Doc:        "//ptm:nobce functions must compile without IsInBounds/IsSliceInBounds checks",
		RunProgram: runBCE,
	}
}

// --- compile driver ---------------------------------------------------

// pgEscape is one heap-allocation site reported by escape analysis,
// with the -m=2 flow trace explaining why the value escapes.
type pgEscape struct {
	pos  token.Position
	what string // e.g. "make([]uint64, words) escapes to heap"
	flow []Related
}

// pgInline is the inliner's verdict for one function declaration.
type pgInline struct {
	can  bool
	text string // full compiler message, cost number included
}

// pgBound is one bounds check the prove pass could not eliminate.
type pgBound struct {
	pos  token.Position
	kind string // "IsInBounds" or "IsSliceInBounds"
}

// pgDiag is the parsed compiler output for one package.
type pgDiag struct {
	escapes []*pgEscape
	inlines map[string]pgInline // keyed by "file:line" of the declaration
	bounds  []pgBound
	err     error
}

// pgCompileCache memoizes compilations by package directory, so the
// three rules (and repeated runs inside one process) each pay for at
// most one `go tool compile` per package.
var pgCompileCache sync.Map // string (package dir) -> *pgDiag

func pgCompile(pkg *Package) *pgDiag {
	if v, ok := pgCompileCache.Load(pkg.Dir); ok {
		return v.(*pgDiag)
	}
	d := pgCompileUncached(pkg)
	pgCompileCache.Store(pkg.Dir, d)
	return d
}

func pgCompileUncached(pkg *Package) *pgDiag {
	out := &pgDiag{inlines: make(map[string]pgInline)}
	if len(pkg.fileNames) == 0 {
		return out
	}
	if pkg.exports == nil {
		out.err = fmt.Errorf("perfguard: no export data for %s (package not loaded through Loader)", pkg.Path)
		return out
	}
	paths := make([]string, 0, len(pkg.exports))
	for p := range pkg.exports {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var cfg bytes.Buffer
	for _, p := range paths {
		cfg.WriteString("packagefile " + p + "=" + pkg.exports[p] + "\n")
	}
	tmp, err := os.MkdirTemp("", "perfguard-*")
	if err != nil {
		out.err = fmt.Errorf("perfguard: %w", err)
		return out
	}
	defer os.RemoveAll(tmp)
	cfgPath := filepath.Join(tmp, "importcfg")
	if err := os.WriteFile(cfgPath, cfg.Bytes(), 0o600); err != nil {
		out.err = fmt.Errorf("perfguard: %w", err)
		return out
	}
	args := []string{"tool", "compile", "-p", pkg.Path, "-importcfg", cfgPath,
		"-m=2", "-d=ssa/check_bce", "-o", filepath.Join(tmp, "perfguard.o")}
	args = append(args, pkg.fileNames...)
	cmd := exec.Command("go", args...)
	cmd.Dir = pkg.Dir
	// -m diagnostics arrive on stdout, compile errors on stderr; fold
	// both into one stream so parse and error reporting see everything.
	var stderr bytes.Buffer
	cmd.Stdout = &stderr
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		tail := stderr.String()
		if len(tail) > 512 {
			tail = tail[:512] + "..."
		}
		out.err = fmt.Errorf("perfguard: go tool compile %s: %v\n%s", pkg.Path, err, tail)
		return out
	}
	pgParse(out, stderr.String())
	return out
}

// pgLineRe anchors every diagnostic line the compiler emits.
var pgLineRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// pgFlowAtRe extracts the position a flow hop refers to.
var pgFlowAtRe = regexp.MustCompile(` at (.+\.go):(\d+):(\d+)$`)

// pgParse turns `-m=2 -d=ssa/check_bce` stderr into structured
// diagnostics. The grammar, pinned by TestPerfguardParse:
//
//   - "X escapes to heap:" (trailing colon) opens an escape group whose
//     indented "flow:" / "from ... at file:line:col" lines form the
//     witness trace; the group closes at the first non-indented line.
//   - "X escapes to heap" (no colon) and "moved to heap: X" are
//     allocation-site summaries; they deduplicate against an open group
//     at the same position.
//   - "can inline F ..." / "cannot inline F: ..." are inliner verdicts,
//     keyed by the declaration's file:line.
//   - "Found IsInBounds" / "Found IsSliceInBounds" are prove-pass
//     residues.
//   - everything else ("inlining call to", "leaking param", "does not
//     escape", ...) is noise.
func pgParse(out *pgDiag, stderr string) {
	byPos := make(map[string]*pgEscape)
	var cur *pgEscape
	sc := bufio.NewScanner(strings.NewReader(stderr))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := pgLineRe.FindStringSubmatch(sc.Text())
		if m == nil {
			cur = nil
			continue
		}
		pos := token.Position{Filename: m[1], Line: pgAtoi(m[2]), Column: pgAtoi(m[3])}
		msg := m[4]
		if strings.HasPrefix(msg, " ") { // indented: escape-flow trace line
			if cur != nil {
				hop := Related{Pos: cur.pos, Note: strings.TrimSpace(msg)}
				if fm := pgFlowAtRe.FindStringSubmatch(msg); fm != nil {
					hop.Pos = token.Position{Filename: fm[1], Line: pgAtoi(fm[2]), Column: pgAtoi(fm[3])}
				}
				cur.flow = append(cur.flow, hop)
			}
			continue
		}
		cur = nil
		switch {
		case msg == "Found IsInBounds":
			out.bounds = append(out.bounds, pgBound{pos: pos, kind: "IsInBounds"})
		case msg == "Found IsSliceInBounds":
			out.bounds = append(out.bounds, pgBound{pos: pos, kind: "IsSliceInBounds"})
		case strings.HasPrefix(msg, "can inline "):
			out.inlines[pgLineKey(pos)] = pgInline{can: true, text: msg}
		case strings.HasPrefix(msg, "cannot inline "):
			out.inlines[pgLineKey(pos)] = pgInline{can: false, text: msg}
		case strings.HasSuffix(msg, " escapes to heap:"):
			e := pgEscapeAt(out, byPos, pos)
			e.what = strings.TrimSuffix(msg, ":")
			cur = e
		case strings.HasSuffix(msg, " escapes to heap"),
			strings.HasPrefix(msg, "moved to heap: "):
			e := pgEscapeAt(out, byPos, pos)
			if e.what == "" {
				e.what = msg
			}
		}
	}
}

func pgEscapeAt(out *pgDiag, byPos map[string]*pgEscape, pos token.Position) *pgEscape {
	key := pgPosKey(pos)
	if e, ok := byPos[key]; ok {
		return e
	}
	e := &pgEscape{pos: pos}
	out.escapes = append(out.escapes, e)
	byPos[key] = e
	return e
}

func pgAtoi(s string) int { n, _ := strconv.Atoi(s); return n }

func pgPosKey(p token.Position) string {
	return fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Column)
}

func pgLineKey(p token.Position) string {
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// --- cold regions -----------------------------------------------------

// pgRange is a half-open-by-position span of source (inclusive on both
// ends at (line, column) granularity).
type pgRange struct{ start, end token.Position }

func (r pgRange) contains(p token.Position) bool {
	return p.Filename == r.start.Filename &&
		pgCmp(r.start, p) <= 0 && pgCmp(p, r.end) <= 0
}

// pgCmp orders two positions in the same file by line then column.
func pgCmp(a, b token.Position) int {
	switch {
	case a.Line != b.Line:
		if a.Line < b.Line {
			return -1
		}
		return 1
	case a.Column != b.Column:
		if a.Column < b.Column {
			return -1
		}
		return 1
	}
	return 0
}

// pgColdRegions collects the error-termination spans of a function: every
// block or switch/select case whose final statement is a `return` whose
// last result is a non-nil expression of error type, or a panic call.
func pgColdRegions(pkg *Package, decl *ast.FuncDecl, fset *token.FileSet) []pgRange {
	var cold []pgRange
	add := func(stmts []ast.Stmt, from, to token.Pos) {
		if len(stmts) == 0 {
			return
		}
		if pgTerminatesInError(pkg.Info, stmts[len(stmts)-1]) {
			cold = append(cold, pgRange{fset.Position(from), fset.Position(to)})
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch b := n.(type) {
		case *ast.BlockStmt:
			add(b.List, b.Lbrace, b.Rbrace)
		case *ast.CaseClause:
			add(b.Body, b.Colon, b.End())
		case *ast.CommClause:
			add(b.Body, b.Colon, b.End())
		}
		return true
	})
	return cold
}

// pgTerminatesInError reports whether s ends the enclosing path on an
// error: `return ..., e` with e a non-nil expression whose static type
// is (or implements) error, or a panic call.
func pgTerminatesInError(info *types.Info, s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.ReturnStmt:
		if len(st.Results) == 0 {
			return false
		}
		last := st.Results[len(st.Results)-1]
		if id, ok := ast.Unparen(last).(*ast.Ident); ok && id.Name == "nil" {
			return false
		}
		t := info.TypeOf(last)
		return t != nil && types.Implements(t, pgErrorIface)
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isFunc := info.Uses[id].(*types.Func); !isFunc {
					return true // the builtin, not a shadowing declaration
				}
			}
		}
	}
	return false
}

var pgErrorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// --- the trusted allocation-free table --------------------------------

// pgTrustedPrefixes lists stdlib call targets (by funcKey prefix) that
// are allocation-free on their fast paths and appear in the annotated
// hot paths. Keep this list short and defensible: every entry is backed
// by an AllocsPerRun test somewhere in the tree.
var pgTrustedPrefixes = []string{
	"math.",                         // pure float kernels (lpc estimators)
	"math/bits.",                    // popcounts and shifts
	"sync/atomic.",                  // the lock-free ingest plane
	"encoding/binary.littleEndian.", // PutUint32 on fixed buffers
	"encoding/binary.bigEndian.",
	"sync.Mutex.", // uncontended fast path is a CAS
	"sync.RWMutex.",
}

// pgTrustedCallees lists exact trusted targets.
var pgTrustedCallees = map[string]bool{
	"os.File.Write":       true, // write(2); the []byte does not leak
	"os.File.Sync":        true,
	"bufio.Writer.Write":  true, // copies into its own buffer; flush target is a net.Conn on our paths
	"hash/crc32.Checksum": true,
	"hash/crc32.Update":   true,
	"errors.Is":           true,
}

func pgTrusted(key string) bool {
	if pgTrustedCallees[key] {
		return true
	}
	for _, p := range pgTrustedPrefixes {
		if strings.HasPrefix(key, p) {
			return true
		}
	}
	return false
}

// --- noalloc ----------------------------------------------------------

// pgCause records why a function is not allocation-free. kind is one of
// "escape" (compiler-reported heap allocation), "append" (backing-array
// growth invisible to escape analysis), "go" (goroutine launch),
// "external" (call target outside the module and the trusted table), or
// "call" (call to a module function that itself is not allocation-free).
type pgCause struct {
	kind   string
	pos    token.Position
	what   string
	callee string
	flow   []Related
}

func runNoalloc(pass *ProgramPass) {
	m := pass.prog

	// Roots: //ptm:noalloc functions in target (non-dep) packages.
	var roots []*progFunc
	for _, f := range m.decls {
		if f.has(factNoalloc) && !f.pkg.Dep && m.body(f.key) == f {
			roots = append(roots, f)
		}
	}
	if len(roots) == 0 {
		return
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].key < roots[j].key })

	// Call sites from the walker's summaries; literal bodies merge into
	// their declaration.
	callsOf := func(f *progFunc) []cgCallSite {
		out := slices.Clone(f.calls)
		for _, l := range f.lits {
			out = append(out, l.calls...)
		}
		return out
	}

	// Reachable closure over module functions, following static calls
	// from hot regions only.
	scope := make(map[string]*progFunc)
	var work []*progFunc
	push := func(f *progFunc) {
		if _, ok := scope[f.key]; !ok {
			scope[f.key] = f
			work = append(work, f)
		}
	}
	for _, r := range roots {
		push(r)
	}
	for len(work) > 0 {
		f := work[0]
		work = work[1:]
		for _, c := range callsOf(f) {
			if !f.hot(pass.Fset.Position(c.pos)) || pgTrusted(c.callee) {
				continue
			}
			if callee := m.body(c.callee); callee != nil {
				push(callee)
			}
		}
	}

	// Compile every package owning an in-scope function; report failures
	// once per package.
	diags := make(map[string]*pgDiag)
	for _, f := range scope {
		if _, ok := diags[f.pkg.Dir]; ok {
			continue
		}
		d := pgCompile(f.pkg)
		diags[f.pkg.Dir] = d
		if d.err != nil && !f.pkg.Dep {
			pass.Report(f.pkg.Files[0].Package, nil, "%v", d.err)
		}
	}

	// Terminal causes: compiler-reported escapes plus the syntactic
	// append/go blind-spot scan, hot regions only.
	causes := make(map[string]*pgCause)
	assign := func(key string, c *pgCause) {
		if old := causes[key]; old == nil || pgCmp(c.pos, old.pos) < 0 {
			causes[key] = c
		}
	}
	for _, f := range scope {
		d := diags[f.pkg.Dir]
		if d == nil || d.err != nil {
			continue
		}
		for _, e := range d.escapes {
			if f.hot(e.pos) {
				assign(f.key, &pgCause{kind: "escape", pos: e.pos, what: e.what, flow: e.flow})
			}
		}
		ast.Inspect(f.decl.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.CallExpr:
				if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok && id.Name == "append" {
					if _, isFunc := f.pkg.Info.Uses[id].(*types.Func); !isFunc {
						if p := pass.Fset.Position(st.Pos()); f.hot(p) {
							assign(f.key, &pgCause{kind: "append", pos: p})
						}
					}
				}
			case *ast.GoStmt:
				if p := pass.Fset.Position(st.Pos()); f.hot(p) {
					assign(f.key, &pgCause{kind: "go", pos: p})
				}
			}
			return true
		})
		for _, c := range callsOf(f) {
			p := pass.Fset.Position(c.pos)
			if !f.hot(p) || pgTrusted(c.callee) {
				continue
			}
			if m.body(c.callee) == nil {
				assign(f.key, &pgCause{kind: "external", pos: p, callee: c.callee})
			}
		}
	}

	// Greatest fixpoint: knock out every function with a hot call to a
	// knocked-out module callee, propagating until stable.
	keys := make([]string, 0, len(scope))
	for k := range scope {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for changed := true; changed; {
		changed = false
		for _, k := range keys {
			if causes[k] != nil {
				continue
			}
			f := scope[k]
			for _, c := range callsOf(f) {
				p := pass.Fset.Position(c.pos)
				if !f.hot(p) || pgTrusted(c.callee) {
					continue
				}
				if callee, ok := scope[c.callee]; ok && causes[callee.key] != nil {
					assign(k, &pgCause{kind: "call", pos: p, callee: c.callee})
					changed = true
				}
			}
		}
	}

	for _, r := range roots {
		c := causes[r.key]
		if c == nil {
			continue
		}
		name := shortKey(r.key)
		related := []Related{{
			Pos:  pass.Fset.Position(r.decl.Name.Pos()),
			Note: fmt.Sprintf("%s is declared //%s here", name, factNoalloc),
		}}
		var msg string
		switch c.kind {
		case "escape":
			msg = fmt.Sprintf("%s is marked //%s but allocates: %s", name, factNoalloc, c.what)
			related = append(related, c.flow...)
		case "append":
			msg = fmt.Sprintf("%s is marked //%s but calls append, which may grow its backing array", name, factNoalloc)
		case "go":
			msg = fmt.Sprintf("%s is marked //%s but starts a goroutine", name, factNoalloc)
		case "external":
			msg = fmt.Sprintf("%s is marked //%s but calls %s, which perfguard cannot prove allocation-free", name, factNoalloc, shortKey(c.callee))
		case "call":
			msg = fmt.Sprintf("%s is marked //%s but calls %s, which is not allocation-free", name, factNoalloc, shortKey(c.callee))
			related = append(related, pgCauseChain(causes, c)...)
		}
		pass.Report(pgTokenPos(pass, r, c.pos), related, "%s", msg)
	}
}

// pgCauseChain renders the call chain from a "call" cause down to its
// terminal allocation as witness hops.
func pgCauseChain(causes map[string]*pgCause, c *pgCause) []Related {
	var hops []Related
	for depth := 0; c != nil && c.kind == "call" && depth < 32; depth++ {
		next := causes[c.callee]
		if next == nil {
			break
		}
		name := shortKey(c.callee)
		switch next.kind {
		case "escape":
			hops = append(hops, Related{Pos: next.pos, Note: fmt.Sprintf("%s allocates: %s", name, next.what)})
			hops = append(hops, next.flow...)
		case "append":
			hops = append(hops, Related{Pos: next.pos, Note: name + " calls append here"})
		case "go":
			hops = append(hops, Related{Pos: next.pos, Note: name + " starts a goroutine here"})
		case "external":
			hops = append(hops, Related{Pos: next.pos, Note: fmt.Sprintf("%s calls %s, which perfguard cannot prove allocation-free", name, shortKey(next.callee))})
		case "call":
			hops = append(hops, Related{Pos: next.pos, Note: fmt.Sprintf("%s calls %s here", name, shortKey(next.callee))})
		}
		c = next
	}
	return hops
}

// pgTokenPos maps a parsed compiler position back into the fileset so
// Report can anchor the finding. The AST walk below finds the smallest
// node starting at the diagnostic's (line, column); when nothing matches
// (positions the compiler synthesized), the function declaration anchors
// the finding instead.
func pgTokenPos(pass *ProgramPass, f *progFunc, p token.Position) token.Pos {
	var best token.Pos
	ast.Inspect(f.decl, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		np := pass.Fset.Position(n.Pos())
		if np.Filename == p.Filename && np.Line == p.Line && np.Column == p.Column {
			best = n.Pos()
		}
		return true
	})
	if best != token.NoPos {
		return best
	}
	// Fall back to any node on the right line.
	ast.Inspect(f.decl, func(n ast.Node) bool {
		if n == nil || best != token.NoPos {
			return false
		}
		if np := pass.Fset.Position(n.Pos()); np.Filename == p.Filename && np.Line == p.Line {
			best = n.Pos()
		}
		return true
	})
	if best != token.NoPos {
		return best
	}
	return f.decl.Name.Pos()
}

// --- inline -----------------------------------------------------------

func runInline(pass *ProgramPass) {
	pgPerPackage(pass, factInline, func(f *progFunc, d *pgDiag) {
		declPos := pass.Fset.Position(f.decl.Name.Pos())
		verdict, ok := d.inlines[pgLineKey(declPos)]
		name := shortKey(f.key)
		switch {
		case !ok:
			pass.Report(f.decl.Name.Pos(), nil,
				"%s is marked //%s but the compiler reported no inlining decision for it", name, factInline)
		case !verdict.can:
			pass.Report(f.decl.Name.Pos(), nil,
				"%s is marked //%s but the compiler reports: %s", name, factInline, verdict.text)
		}
	})
}

// --- bce --------------------------------------------------------------

func runBCE(pass *ProgramPass) {
	pgPerPackage(pass, factNoBCE, func(f *progFunc, d *pgDiag) {
		declHop := Related{
			Pos:  pass.Fset.Position(f.decl.Name.Pos()),
			Note: fmt.Sprintf("%s is declared //%s here", shortKey(f.key), factNoBCE),
		}
		for _, b := range d.bounds {
			if f.hot(b.pos) {
				pass.Report(pgTokenPos(pass, f, b.pos), []Related{declHop},
					"%s is marked //%s but the compiler found a bounds check (%s)",
					shortKey(f.key), factNoBCE, b.kind)
			}
		}
	})
}

// pgPerPackage compiles each non-dep package containing fact-annotated
// functions and applies check to every annotated function, reporting
// compile failures once per package.
func pgPerPackage(pass *ProgramPass, fact string, check func(*progFunc, *pgDiag)) {
	byPkg := make(map[*Package][]*progFunc)
	for _, f := range pass.prog.decls {
		if f.has(fact) && !f.pkg.Dep && pass.prog.body(f.key) == f {
			byPkg[f.pkg] = append(byPkg[f.pkg], f)
		}
	}
	pkgs := make([]*Package, 0, len(byPkg))
	for p := range byPkg {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	for _, pkg := range pkgs {
		d := pgCompile(pkg)
		if d.err != nil {
			pass.Report(pkg.Files[0].Package, nil, "%v", d.err)
			continue
		}
		fns := byPkg[pkg]
		sort.Slice(fns, func(i, j int) bool { return fns[i].key < fns[j].key })
		for _, f := range fns {
			check(f, d)
		}
	}
}
