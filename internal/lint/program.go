package lint

// The program model: the one whole-program index that privflow, the
// four concguard rules, the three perfguard rules and the //ptm:
// directive audit all read. Run builds it once per invocation, over
// every loaded package (dependencies included, so facts and bodies
// cross package boundaries):
//
//   - one annotation scan parses every //ptm:<kind> comment once; rules
//     look facts up by comment group, and the audit reads the kinds no
//     rule consumes;
//   - one function table, keyed by funcKey, holds each declared
//     function's declaration, package, span and cold regions, doc
//     facts, and — from the concguard walker — its lock summary and
//     call sites, with the literals in its body as children
//     ("key$litN");
//   - one callee resolver, staticCallee, serves every rule.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// The //ptm: fact kinds, grouped by the rules that consume them.
// factKinds is the audit's known set.
const (
	factSource    = "ptm:source" // privflow
	factSink      = "ptm:sink"
	factSanitizer = "ptm:sanitizer"
	factLockOrder = "ptm:lockorder" // concguard
	factGuardedBy = "ptm:guardedby"
	factRCU       = "ptm:rcu"
	factExclusive = "ptm:exclusive"
	factBlocking  = "ptm:blocking"
	factNoalloc   = "ptm:noalloc" // perfguard
	factInline    = "ptm:inline"
	factNoBCE     = "ptm:nobce"
)

var factKinds = []string{
	factSource, factSink, factSanitizer,
	factLockOrder, factGuardedBy, factRCU, factExclusive, factBlocking,
	factNoalloc, factInline, factNoBCE,
}

// ptmNote is one //ptm:<kind> comment: its kind, its label (the text
// after the kind), and its position.
type ptmNote struct {
	kind, text string
	pos        token.Pos
}

// progFunc is one entry of the function table: a declared function or
// a function literal inside one.
type progFunc struct {
	key   string
	pos   token.Pos
	decl  *ast.FuncDecl // nil for function literals
	obj   *types.Func   // nil for function literals
	pkg   *Package
	span  pgRange
	cold  []pgRange         // error-terminated regions (perfguard)
	facts map[string]string // doc-comment //ptm: facts: kind -> label
	lits  []*progFunc       // literals in the body, in walk order

	// The concguard walker's summary.
	acquires  []cgAcquire
	calls     []cgCallSite
	accesses  []cgAccess
	rcuOps    []cgRCUOp
	blockPts  []token.Pos // blocking points, in source order
	usesAfter []objUse    // identifier uses, for rcu retention
}

func (f *progFunc) has(kind string) bool {
	_, ok := f.facts[kind]
	return ok
}

// hot reports whether p lands in f's body outside every cold
// (error-terminated) region.
func (f *progFunc) hot(p token.Position) bool {
	if !f.span.contains(p) {
		return false
	}
	for _, r := range f.cold {
		if r.contains(p) {
			return false
		}
	}
	return true
}

// ptmSource is one //ptm:source on a type, struct field, or package
// variable, named by privflow's node id ("type:", "field:" or "var:"
// and the qualified name).
type ptmSource struct {
	node, label string
	pos         token.Pos
}

// annotErr is a malformed concguard annotation, reported under the rule
// that owns the fact when that rule runs.
type annotErr struct {
	rule string
	pos  token.Pos
	msg  string
}

// program is the whole-program model.
type program struct {
	fset    *token.FileSet
	pkgs    []*Package
	target  map[string]bool // files of non-dependency packages
	notes   map[*ast.CommentGroup][]ptmNote
	unknown []ptmNote // notes in target files whose kind no rule consumes

	funcs  map[string]*progFunc // by key; the last declaration wins
	decls  []*progFunc          // declared functions, in source order
	sorted []*progFunc          // declarations and literals, by position

	sources   []ptmSource
	annotErrs []annotErr

	// concguard facts and call graph.
	callers      map[string][]callerRef
	addressTaken map[string]bool
	declared     []declaredEdge
	guards       map[string]guardFact // fieldKey -> guard
	rcuFields    map[string]guardFact // fieldKey -> rotation lock
	// atomicFields are fields address-taken in sync/atomic calls
	// (inferred), mapped to one representative atomic-access position.
	atomicFields map[string]token.Pos
	// atomicTyped are fields whose declared type is a sync/atomic type.
	atomicTyped map[string]bool
	exclusive   map[string]bool // see exclusiveCovered
	coverage    map[guardNeed]map[string]bool
}

// buildProgram scans, indexes and summarizes the loaded program.
func buildProgram(fset *token.FileSet, pkgs []*Package) *program {
	m := &program{
		fset:         fset,
		pkgs:         pkgs,
		target:       make(map[string]bool),
		notes:        make(map[*ast.CommentGroup][]ptmNote),
		funcs:        make(map[string]*progFunc),
		callers:      make(map[string][]callerRef),
		addressTaken: make(map[string]bool),
		guards:       make(map[string]guardFact),
		rcuFields:    make(map[string]guardFact),
		atomicFields: make(map[string]token.Pos),
		atomicTyped:  make(map[string]bool),
		coverage:     make(map[guardNeed]map[string]bool),
	}
	for _, pkg := range pkgs {
		for _, name := range pkg.fileNames {
			m.target[name] = !pkg.Dep
		}
		for _, file := range pkg.Files {
			m.scanFacts(file, !pkg.Dep)
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					m.addFunc(pkg, d)
				case *ast.GenDecl:
					m.scanGenDecl(pkg, d)
				}
			}
		}
	}
	for _, f := range m.decls {
		if f.decl.Body != nil {
			m.walkFunc(f)
		}
	}
	for _, f := range m.decls {
		m.sorted = append(m.sorted, f)
		m.sorted = append(m.sorted, f.lits...)
	}
	sort.SliceStable(m.sorted, func(i, j int) bool {
		a, b := m.sorted[i], m.sorted[j]
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		return a.key < b.key
	})
	for _, f := range m.sorted {
		for _, c := range f.calls {
			m.callers[c.callee] = append(m.callers[c.callee], callerRef{caller: f.key, site: c})
		}
	}
	m.exclusive = m.exclusiveCovered()
	return m
}

// scanFacts is the annotation scan: it parses every //ptm:<kind>
// comment of file, indexing the notes by comment group.
func (m *program) scanFacts(file *ast.File, target bool) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			if !strings.HasPrefix(text, "ptm:") {
				continue
			}
			kind, rest := text, ""
			if i := strings.IndexAny(text, " \t"); i >= 0 {
				kind, rest = text[:i], text[i:]
			}
			n := ptmNote{kind: kind, text: strings.TrimSpace(rest), pos: c.Pos()}
			m.notes[cg] = append(m.notes[cg], n)
			if target && !slices.Contains(factKinds, kind) {
				m.unknown = append(m.unknown, n)
			}
		}
	}
}

// fact returns the label of the first //ptm:<kind> note in groups.
func (m *program) fact(kind string, groups ...*ast.CommentGroup) (string, bool) {
	for _, g := range groups {
		for _, n := range m.notes[g] {
			if n.kind == kind {
				return n.text, true
			}
		}
	}
	return "", false
}

// addFunc enters a function declaration into the table.
func (m *program) addFunc(pkg *Package, d *ast.FuncDecl) {
	obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
	if obj == nil {
		return
	}
	f := &progFunc{
		key: funcKey(obj), pos: d.Pos(), decl: d, obj: obj, pkg: pkg,
		span: pgRange{m.fset.Position(d.Pos()), m.fset.Position(d.End())},
	}
	if d.Body != nil {
		f.cold = pgColdRegions(pkg, d, m.fset)
	}
	for _, n := range m.notes[d.Doc] {
		if f.facts == nil {
			f.facts = make(map[string]string)
		}
		if _, dup := f.facts[n.kind]; !dup {
			f.facts[n.kind] = n.text
		}
	}
	m.funcs[f.key] = f
	m.decls = append(m.decls, f)
}

// body returns the declared function with a body under key, or nil.
func (m *program) body(key string) *progFunc {
	if f := m.funcs[key]; f != nil && f.decl != nil && f.decl.Body != nil {
		return f
	}
	return nil
}

// scanGenDecl records the facts declared on types, struct fields and
// package variables: privflow sources and the concguard contracts.
func (m *program) scanGenDecl(pkg *Package, d *ast.GenDecl) {
	// A lone spec's doc comment sits on the declaration.
	var lone *ast.CommentGroup
	if len(d.Specs) == 1 {
		lone = d.Doc
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if label, ok := m.fact(factSource, s.Doc, s.Comment, lone); ok {
				m.addSource("type:"+pkg.Path+"."+s.Name.Name, label, s.Pos())
			}
			if st, ok := s.Type.(*ast.StructType); ok {
				m.scanStruct(pkg, d, s, st)
			}
		case *ast.ValueSpec:
			if label, ok := m.fact(factSource, s.Doc, s.Comment, lone); ok {
				for _, n := range s.Names {
					m.addSource("var:"+pkg.Path+"."+n.Name, label, n.Pos())
				}
			}
		}
	}
}

// addSource records a privflow source; an empty label defaults to the
// declaration's qualified name.
func (m *program) addSource(node, label string, pos token.Pos) {
	if label == "" {
		_, label, _ = strings.Cut(node, ":")
	}
	m.sources = append(m.sources, ptmSource{node: node, label: label, pos: pos})
}

// scanStruct records field sources and the struct's lockorder,
// guardedby, rcu and atomic-typed facts.
func (m *program) scanStruct(pkg *Package, gd *ast.GenDecl, ts *ast.TypeSpec, st *ast.StructType) {
	owner := pkg.Path + "." + ts.Name.Name
	fieldType := func(name string) types.Type {
		for _, fl := range st.Fields.List {
			for _, n := range fl.Names {
				if n.Name == name {
					return pkg.Info.TypeOf(fl.Type)
				}
			}
		}
		return nil
	}
	resolveLock := func(rule, name string, pos token.Pos) (lockKey, bool, bool) {
		t := fieldType(name)
		var msg string
		switch {
		case t == nil:
			msg = fmt.Sprintf("//ptm annotation names %q, which is not a field of %s", name, ts.Name.Name)
		case !isMutexType(t) && !isRWMutexType(t):
			msg = fmt.Sprintf("//ptm annotation guard %s.%s is not a sync.Mutex or sync.RWMutex", ts.Name.Name, name)
		default:
			return lockKey(owner + "." + name), isRWMutexType(t), true
		}
		m.annotErrs = append(m.annotErrs, annotErr{rule: rule, pos: pos, msg: msg})
		return "", false, false
	}

	// lockorder pairs: in the type doc and on any field comment.
	scanOrder := func(g *ast.CommentGroup) {
		text, ok := m.fact(factLockOrder, g)
		if !ok {
			return
		}
		for _, pair := range strings.Fields(text) {
			a, b, found := strings.Cut(pair, "<")
			if !found || a == "" || b == "" {
				m.annotErrs = append(m.annotErrs, annotErr{rule: "lockorder", pos: g.Pos(),
					msg: fmt.Sprintf("//%s pair %q is not of the form a<b", factLockOrder, pair)})
				continue
			}
			ka, _, okA := resolveLock("lockorder", a, g.Pos())
			kb, _, okB := resolveLock("lockorder", b, g.Pos())
			if okA && okB {
				m.declared = append(m.declared, declaredEdge{before: ka, after: kb, pos: g.Pos()})
			}
		}
	}
	scanOrder(gd.Doc)
	scanOrder(ts.Doc)
	scanOrder(ts.Comment)

	// A guard fact's lock is its label's first token; anything after it
	// is prose ("//ptm:guardedby mu (all entries <= syncedSeq are durable)").
	guard := func(rule string, fl *ast.Field, kind string, into map[string]guardFact) {
		label, ok := m.fact(kind, fl.Doc, fl.Comment)
		if !ok {
			return
		}
		name := ""
		if fields := strings.Fields(label); len(fields) > 0 {
			name = fields[0]
		}
		if g, rw, resolved := resolveLock(rule, name, fl.Pos()); resolved {
			for _, fn := range fl.Names {
				into[owner+"."+fn.Name] = guardFact{guard: g, guardRW: rw, pos: fl.Pos(), owner: owner, name: fn.Name}
			}
		}
	}
	for _, fl := range st.Fields.List {
		if label, ok := m.fact(factSource, fl.Doc, fl.Comment); ok {
			for _, n := range fl.Names {
				m.addSource("field:"+owner+"."+n.Name, label, n.Pos())
			}
		}
		scanOrder(fl.Doc)
		scanOrder(fl.Comment)
		guard("guardedby", fl, factGuardedBy, m.guards)
		guard("rcu", fl, factRCU, m.rcuFields)
		if t := pkg.Info.TypeOf(fl.Type); t != nil && isAtomicType(t) {
			for _, fn := range fl.Names {
				m.atomicTyped[owner+"."+fn.Name] = true
			}
		}
	}
}

// staticCallee resolves the function or method a call statically
// targets (nil for calls through function values), and, for a method
// value call, the receiver expression.
func staticCallee(info *types.Info, call *ast.CallExpr) (*types.Func, ast.Expr) {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn, nil
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		if s, ok := info.Selections[f]; ok && s.Kind() == types.MethodVal {
			return fn, f.X
		}
		return fn, nil
	}
	return nil, nil
}
