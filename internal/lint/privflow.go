package lint

// privflow is the interprocedural taint analysis that turns the paper's
// central privacy claim (Sections II-D and V) into a machine-checked
// property of the code: private vehicle state — the key Kv, the constant
// array C, the plaintext vehicle identity, and infrastructure private
// keys — must never reach a public sink (transport sends, record/bitmap
// writes, fmt/log formatting, marshal/encode calls) except through the
// declared sanitizer, the hash reduction of internal/vhash.
//
// The engine is summary-based and flow-insensitive: every parameter,
// result, field, and variable of the program is a node in a global flow
// graph keyed by stable, package-qualified strings (so nodes unify across
// packages without shared *types.Object identity — the loader's
// cross-package fact export). Function bodies contribute edges for
// assignments, composite literals, call-argument/return bindings, range
// and send statements, and closures; taint is reachability from source
// nodes, and every finding carries the full source→sink witness path,
// one file:line hop per edge.
//
// Sources, sinks, and sanitizers come from two places: the built-in
// tables below (standard-library sinks and crypto declassifiers that
// cannot be annotated in place) and //ptm:source, //ptm:sink,
// //ptm:sanitizer doc-comment directives on the repo's own declarations,
// so future subsystems opt in without touching this engine.
//
// Deliberate approximations (documented, conservative for this codebase):
//   - field-sensitive reads: x.f is tainted iff something tainted was
//     ever stored in a field named f of x's (named) type — container
//     taint does not bleed into every field read;
//   - len/cap do not propagate taint: aggregate cardinality is the
//     system's intended public output (the whole point of the paper);
//   - no implicit flows through branch conditions;
//   - dynamic calls through function values propagate operand taint and
//     bind arguments only when the function value is syntactically known
//     (declared function or function literal);
//   - results of the built-in error type do not absorb argument taint
//     from opaque (external or dynamic) calls: a secret can only enter
//     an error value through a formatting call, and fmt.Errorf is itself
//     a sink, so the leak is reported at its true entry point. Loaded
//     bodies keep precise per-result propagation, so a custom error type
//     wrapping private state is still caught.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Built-in sinks: standard-library calls whose arguments become public
// output. The repo's own sinks (dsrc sends, transport frames, bitmap and
// record writes, the CLI printer) are declared in place with //ptm:sink.
var builtinSinks = map[string]string{
	"fmt.Print": "formatting", "fmt.Printf": "formatting", "fmt.Println": "formatting",
	"fmt.Sprint": "formatting", "fmt.Sprintf": "formatting", "fmt.Sprintln": "formatting",
	"fmt.Fprint": "formatting", "fmt.Fprintf": "formatting", "fmt.Fprintln": "formatting",
	"fmt.Errorf": "formatting", "fmt.Append": "formatting", "fmt.Appendf": "formatting",
	"fmt.Appendln": "formatting",
	"log.Print":    "logging", "log.Printf": "logging", "log.Println": "logging",
	"log.Fatal": "logging", "log.Fatalf": "logging", "log.Fatalln": "logging",
	"log.Panic": "logging", "log.Panicf": "logging", "log.Panicln": "logging",
	"log.Output":       "logging",
	"log.Logger.Print": "logging", "log.Logger.Printf": "logging", "log.Logger.Println": "logging",
	"log.Logger.Fatal": "logging", "log.Logger.Fatalf": "logging", "log.Logger.Fatalln": "logging",
	"log.Logger.Panic": "logging", "log.Logger.Panicf": "logging", "log.Logger.Panicln": "logging",
	"log.Logger.Output":            "logging",
	"encoding/json.Marshal":        "encoding",
	"encoding/json.MarshalIndent":  "encoding",
	"encoding/json.Encoder.Encode": "encoding",
	"encoding/gob.Encoder.Encode":  "encoding",
	"encoding/xml.Marshal":         "encoding",
	"encoding/csv.Writer.Write":    "encoding",
	"encoding/csv.Writer.WriteAll": "encoding",
	"encoding/binary.Write":        "encoding",
}

// Built-in sanitizers: the vhash index reduction (the paper's sole
// declassifier — also annotated in place, kept here as belt-and-braces)
// and the crypto operations whose outputs are public by construction
// (signatures, certificates, TLS-encrypted connections).
var builtinSanitizers = map[string]bool{
	"ptm/internal/vhash.Identity.Index": true,
	"crypto/ecdsa.SignASN1":             true,
	"crypto/x509.CreateCertificate":     true,
	"crypto/tls.Dial":                   true,
	"crypto/tls.Client":                 true,
	"crypto/tls.Server":                 true,
	"crypto/tls.NewListener":            true,
}

// Built-in tainted types: every expression of one of these types is
// private state. The vhash entries are also annotated in place; the
// ecdsa entry cannot be (standard library).
var builtinSourceTypes = map[string]string{
	"ptm/internal/vhash.Identity":  "vehicle identity state (v, Kv, C)",
	"ptm/internal/vhash.VehicleID": "plaintext vehicle identity",
	"crypto/ecdsa.PrivateKey":      "ECDSA private key",
}

// Built-in tainted fields (also annotated in place in their packages).
var builtinSourceFields = map[string]string{
	"ptm/internal/vhash.Identity.id":  "plaintext vehicle identity v",
	"ptm/internal/vhash.Identity.kv":  "vehicle private key Kv",
	"ptm/internal/vhash.Identity.c":   "vehicle constant array C",
	"ptm/internal/pki.Authority.key":  "authority signing key",
	"ptm/internal/pki.Credential.key": "RSU signing key",
}

// Privflow returns the whole-program taint analyzer enforcing the
// paper's privacy boundary (§II-D, §V).
func Privflow() *Analyzer {
	return &Analyzer{
		Name: "privflow",
		Doc:  "private vehicle state must not reach transport/record/log/encode sinks un-sanitized",
		RunProgram: func(pass *ProgramPass) {
			newPrivflow(pass).run()
		},
	}
}

type nodeID string

type pfEdge struct {
	to   nodeID
	pos  token.Position
	note string
}

type funcInfo struct {
	key      string
	recv     nodeID
	params   []nodeID
	results  []nodeID
	variadic bool
}

type sinkCall struct {
	pos  token.Pos
	key  string // sink funcKey
	kind string
	args [][]nodeID // receiver (if any) first, then arguments
}

type privflow struct {
	pass *ProgramPass
	m    *program
	fset *token.FileSet

	sinks      map[string]string
	sanitizers map[string]bool
	srcTypes   map[string]string
	srcFields  map[string]string // "field:" node id -> label

	defined    map[string]*funcInfo
	funcByNode map[nodeID]*funcInfo
	edges      map[nodeID][]pfEdge
	seeds      map[nodeID]string
	seedPos    map[nodeID]token.Position
	desc       map[nodeID]string
	sinkCalls  []sinkCall
	litSeq     int
	reached    map[nodeID]bool
}

func newPrivflow(pass *ProgramPass) *privflow {
	pf := &privflow{
		pass:       pass,
		m:          pass.prog,
		fset:       pass.Fset,
		sinks:      make(map[string]string),
		sanitizers: make(map[string]bool),
		srcTypes:   make(map[string]string),
		srcFields:  make(map[string]string),
		defined:    make(map[string]*funcInfo),
		funcByNode: make(map[nodeID]*funcInfo),
		edges:      make(map[nodeID][]pfEdge),
		seeds:      make(map[nodeID]string),
		seedPos:    make(map[nodeID]token.Position),
		desc:       make(map[nodeID]string),
	}
	for k, v := range builtinSinks {
		pf.sinks[k] = v
	}
	for k := range builtinSanitizers {
		pf.sanitizers[k] = true
	}
	for k, v := range builtinSourceTypes {
		pf.srcTypes[k] = v
	}
	for k, v := range builtinSourceFields {
		id := nodeID("field:" + k)
		pf.srcFields[string(id)] = v
		pf.desc[id] = k
	}
	return pf
}

func (pf *privflow) run() {
	// Phase 1: facts — annotations, function registry.
	pf.collectFacts()
	// Seed annotated/built-in field sources.
	for id, label := range pf.srcFields {
		pf.seed(nodeID(id), label)
	}
	// Phase 2: edges.
	for _, pkg := range pf.m.pkgs {
		pf.buildPackage(pkg)
	}
	// Phase 3: reachability + sink checks.
	prev := pf.solve()
	for _, sc := range pf.sinkCalls {
		pf.reportIfTainted(sc, prev)
	}
}

// --- helpers: stable cross-package keys -------------------------------

func deref(t types.Type) types.Type {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		return t
	}
}

func namedFullName(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}

// funcKey is the stable, pointer-insensitive identity of a function or
// method: "pkg/path.Func" or "pkg/path.Type.Method". Identical whether
// the *types.Func came from source or from export data — this is what
// lets per-package summaries link into one program-wide graph.
func funcKey(f *types.Func) string {
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n, ok := deref(sig.Recv().Type()).(*types.Named); ok {
			return namedFullName(n) + "." + f.Name()
		}
		return f.FullName()
	}
	if f.Pkg() != nil {
		return f.Pkg().Path() + "." + f.Name()
	}
	return f.Name()
}

func ownerName(t types.Type) string {
	if n, ok := deref(t).(*types.Named); ok {
		return namedFullName(n)
	}
	return "anon"
}

// taintedTypeOf reports whether t is (or contains, through pointers,
// slices, arrays, maps, or channels) a declared source type.
func (pf *privflow) taintedTypeOf(t types.Type) (nodeID, string, bool) {
	for depth := 0; t != nil && depth < 10; depth++ {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Chan:
			t = u.Elem()
		case *types.Map:
			if id, label, ok := pf.taintedTypeOf(u.Key()); ok {
				return id, label, true
			}
			t = u.Elem()
		case *types.Named:
			name := namedFullName(u)
			if label, ok := pf.srcTypes[name]; ok {
				id := nodeID("type:" + name)
				if _, seeded := pf.seeds[id]; !seeded {
					pf.desc[id] = "value of type " + name
					pf.seed(id, label)
				}
				return id, label, true
			}
			return "", "", false
		default:
			return "", "", false
		}
	}
	return "", "", false
}

func (pf *privflow) seed(id nodeID, label string) {
	if _, ok := pf.seeds[id]; !ok {
		pf.seeds[id] = label
	}
}

func (pf *privflow) edge(from, to nodeID, pos token.Pos, note string) {
	if from == "" || to == "" || from == to {
		return
	}
	pf.edges[from] = append(pf.edges[from], pfEdge{to: to, pos: pf.fset.Position(pos), note: note})
}

func (pf *privflow) describe(id nodeID) string {
	if d, ok := pf.desc[id]; ok {
		return d
	}
	return string(id)
}

// --- phase 1: facts from the program model ----------------------------

func (pf *privflow) collectFacts() {
	for _, f := range pf.m.decls {
		fi := pf.registerFunc(f.key, f.obj.Type().(*types.Signature))
		if f.decl.Body != nil {
			pf.defined[f.key] = fi
		}
		pf.funcByNode[nodeID("func:"+f.key)] = fi
		if label, ok := f.facts[factSink]; ok {
			if label == "" {
				label = "annotated sink"
			}
			pf.sinks[f.key] = label
		}
		if f.has(factSanitizer) {
			pf.sanitizers[f.key] = true
		}
		if label, ok := f.facts[factSource]; ok {
			if label == "" {
				label = f.key + " result"
			}
			for _, r := range fi.results {
				pf.desc[r] = "result of " + f.key
				pf.seed(r, label)
				pf.seedPos[r] = pf.fset.Position(f.pos)
			}
		}
	}
	for _, s := range pf.m.sources {
		id := nodeID(s.node)
		kind, name, _ := strings.Cut(s.node, ":")
		switch kind {
		case "type":
			pf.srcTypes[name] = s.label
		case "field":
			pf.srcFields[s.node] = s.label
			pf.desc[id] = name
			pf.seedPos[id] = pf.fset.Position(s.pos)
		case "var":
			pf.desc[id] = "package variable " + name
			pf.seed(id, s.label)
			pf.seedPos[id] = pf.fset.Position(s.pos)
		}
	}
}

func (pf *privflow) registerFunc(key string, sig *types.Signature) *funcInfo {
	fi := &funcInfo{key: key, variadic: sig.Variadic()}
	if sig.Recv() != nil {
		fi.recv = nodeID("param:" + key + "#recv")
		pf.desc[fi.recv] = "receiver of " + key
	}
	for i := 0; i < sig.Params().Len(); i++ {
		id := nodeID(fmt.Sprintf("param:%s#%d", key, i))
		pf.desc[id] = fmt.Sprintf("parameter %d of %s", i, key)
		fi.params = append(fi.params, id)
	}
	for i := 0; i < sig.Results().Len(); i++ {
		id := nodeID(fmt.Sprintf("ret:%s#%d", key, i))
		pf.desc[id] = "result of " + key
		fi.results = append(fi.results, id)
	}
	return fi
}

// --- phase 2: building the flow graph --------------------------------

type pfScope struct {
	pf     *privflow
	pkg    *Package
	fnKey  string
	objMap map[types.Object]nodeID
}

func (pf *privflow) buildPackage(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				pf.buildFunc(pkg, d)
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				sc := &pfScope{pf: pf, pkg: pkg, fnKey: "pkginit:" + pkg.Path, objMap: map[types.Object]nodeID{}}
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Values) == 0 {
						continue
					}
					lhs := make([]ast.Expr, len(vs.Names))
					for i, n := range vs.Names {
						lhs[i] = n
					}
					sc.assign(lhs, vs.Values, vs.Pos())
				}
			}
		}
	}
}

func (pf *privflow) buildFunc(pkg *Package, d *ast.FuncDecl) {
	fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
	if fn == nil || d.Body == nil {
		return
	}
	key := funcKey(fn)
	fi := pf.defined[key]
	if fi == nil {
		return
	}
	sc := &pfScope{pf: pf, pkg: pkg, fnKey: key, objMap: map[types.Object]nodeID{}}
	sc.bindSignature(fn.Type().(*types.Signature), fi)
	sc.walkStmt(d.Body)
}

// bindSignature maps the declared parameter/receiver/result objects to
// the function's global summary nodes, so body edges land on them. In a
// sanitizer, results map to throwaway locals instead: nothing the body
// computes may taint the (clean by definition) result nodes.
func (sc *pfScope) bindSignature(sig *types.Signature, fi *funcInfo) {
	if sig.Recv() != nil && fi.recv != "" {
		sc.objMap[sig.Recv()] = fi.recv
	}
	for i := 0; i < sig.Params().Len() && i < len(fi.params); i++ {
		sc.objMap[sig.Params().At(i)] = fi.params[i]
	}
	san := sc.pf.sanitizers[fi.key]
	for i := 0; i < sig.Results().Len() && i < len(fi.results); i++ {
		if san {
			sc.objMap[sig.Results().At(i)] = nodeID("loc:" + fi.key + "#sanresult")
		} else {
			sc.objMap[sig.Results().At(i)] = fi.results[i]
		}
	}
}

func (sc *pfScope) currentResults() []nodeID {
	if sc.pf.sanitizers[sc.fnKey] {
		return nil
	}
	if fi := sc.pf.defined[sc.fnKey]; fi != nil {
		return fi.results
	}
	if fi := sc.pf.funcByNode[nodeID("func:"+sc.fnKey)]; fi != nil {
		return fi.results
	}
	return nil
}

func (sc *pfScope) walkStmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		if st == nil {
			return
		}
		for _, sub := range st.List {
			sc.walkStmt(sub)
		}
	case *ast.AssignStmt:
		sc.assign(st.Lhs, st.Rhs, st.TokPos)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				lhs := make([]ast.Expr, len(vs.Names))
				for i, n := range vs.Names {
					lhs[i] = n
				}
				sc.assign(lhs, vs.Values, vs.Pos())
			}
		}
	case *ast.ReturnStmt:
		sc.walkReturn(st)
	case *ast.ExprStmt:
		sc.exprNodes(st.X)
	case *ast.GoStmt:
		sc.exprNodes(st.Call)
	case *ast.DeferStmt:
		sc.exprNodes(st.Call)
	case *ast.SendStmt:
		vals := sc.exprNodes(st.Value)
		for _, ch := range sc.exprNodes(st.Chan) {
			for _, v := range vals {
				sc.pf.edge(v, ch, st.Arrow, "sent into "+sc.pf.describe(ch))
			}
		}
	case *ast.IfStmt:
		sc.walkStmt(st.Init)
		sc.exprNodes(st.Cond)
		sc.walkStmt(st.Body)
		sc.walkStmt(st.Else)
	case *ast.ForStmt:
		sc.walkStmt(st.Init)
		if st.Cond != nil {
			sc.exprNodes(st.Cond)
		}
		sc.walkStmt(st.Post)
		sc.walkStmt(st.Body)
	case *ast.RangeStmt:
		src := sc.exprNodes(st.X)
		for _, lv := range []ast.Expr{st.Key, st.Value} {
			if lv == nil {
				continue
			}
			for _, t := range sc.lvalNodes(lv) {
				for _, n := range src {
					sc.pf.edge(n, t, st.For, "ranged into "+sc.pf.describe(t))
				}
			}
		}
		sc.walkStmt(st.Body)
	case *ast.SwitchStmt:
		sc.walkStmt(st.Init)
		if st.Tag != nil {
			sc.exprNodes(st.Tag)
		}
		for _, cl := range st.Body.List {
			cc := cl.(*ast.CaseClause)
			for _, e := range cc.List {
				sc.exprNodes(e)
			}
			for _, sub := range cc.Body {
				sc.walkStmt(sub)
			}
		}
	case *ast.TypeSwitchStmt:
		sc.walkStmt(st.Init)
		var src []nodeID
		switch a := st.Assign.(type) {
		case *ast.ExprStmt:
			if ta, ok := a.X.(*ast.TypeAssertExpr); ok {
				src = sc.exprNodes(ta.X)
			}
		case *ast.AssignStmt:
			if ta, ok := a.Rhs[0].(*ast.TypeAssertExpr); ok {
				src = sc.exprNodes(ta.X)
			}
		}
		for _, cl := range st.Body.List {
			cc := cl.(*ast.CaseClause)
			if obj := sc.pkg.Info.Implicits[cc]; obj != nil {
				t := sc.nodeFor(obj)
				for _, n := range src {
					sc.pf.edge(n, t, cc.Pos(), "type-switched into "+sc.pf.describe(t))
				}
			}
			for _, sub := range cc.Body {
				sc.walkStmt(sub)
			}
		}
	case *ast.SelectStmt:
		for _, cl := range st.Body.List {
			cc := cl.(*ast.CommClause)
			sc.walkStmt(cc.Comm)
			for _, sub := range cc.Body {
				sc.walkStmt(sub)
			}
		}
	case *ast.LabeledStmt:
		sc.walkStmt(st.Stmt)
	case *ast.IncDecStmt:
		sc.exprNodes(st.X)
	case *ast.BranchStmt, *ast.EmptyStmt:
	}
}

func (sc *pfScope) walkReturn(st *ast.ReturnStmt) {
	if len(st.Results) == 0 {
		return
	}
	results := sc.currentResults()
	if sc.pf.sanitizers[sc.fnKey] {
		for _, r := range st.Results {
			sc.exprNodes(r) // side effects (nested calls) still analyzed
		}
		return
	}
	if len(st.Results) == 1 && len(results) > 1 {
		sets := sc.tupleNodes(st.Results[0], len(results))
		for i, set := range sets {
			for _, n := range set {
				sc.pf.edge(n, results[i], st.Pos(), "returned from "+sc.fnKey)
			}
		}
		return
	}
	for i, r := range st.Results {
		nodes := sc.exprNodes(r)
		if i >= len(results) {
			continue
		}
		for _, n := range nodes {
			sc.pf.edge(n, results[i], st.Pos(), "returned from "+sc.fnKey)
		}
	}
}

func (sc *pfScope) assign(lhs, rhs []ast.Expr, pos token.Pos) {
	if len(rhs) == 1 && len(lhs) > 1 {
		sets := sc.tupleNodes(rhs[0], len(lhs))
		for i, l := range lhs {
			sc.assignTo(l, sets[i], pos)
		}
		return
	}
	for i, r := range rhs {
		nodes := sc.exprNodes(r)
		if i < len(lhs) {
			sc.assignTo(lhs[i], nodes, pos)
		}
	}
}

func (sc *pfScope) assignTo(l ast.Expr, nodes []nodeID, pos token.Pos) {
	targets := sc.lvalNodes(l)
	for _, t := range targets {
		for _, n := range nodes {
			sc.pf.edge(n, t, pos, "assigned to "+sc.pf.describe(t))
		}
	}
	// A write through an index expression also folds the key's taint
	// into the container (conservative: the container "contains" it).
	if ix, ok := ast.Unparen(l).(*ast.IndexExpr); ok {
		keys := sc.exprNodes(ix.Index)
		for _, t := range targets {
			for _, k := range keys {
				sc.pf.edge(k, t, pos, "used as key of "+sc.pf.describe(t))
			}
		}
	}
}

// lvalNodes resolves an assignment target to graph nodes.
func (sc *pfScope) lvalNodes(l ast.Expr) []nodeID {
	switch e := ast.Unparen(l).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return nil
		}
		obj := sc.pkg.Info.ObjectOf(e)
		n := sc.nodeFor(obj)
		if n == "" {
			return nil
		}
		return []nodeID{n}
	case *ast.SelectorExpr:
		if sel, ok := sc.pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			sc.exprNodes(e.X) // evaluate base for nested-call edges
			return []nodeID{sc.fieldNode(ownerName(sel.Recv()), sel.Obj().Name())}
		}
		obj := sc.pkg.Info.ObjectOf(e.Sel)
		if n := sc.nodeFor(obj); n != "" {
			return []nodeID{n}
		}
		return nil
	case *ast.StarExpr:
		return sc.exprNodes(e.X)
	case *ast.IndexExpr:
		return sc.exprNodes(e.X)
	default:
		return nil
	}
}

func (sc *pfScope) fieldNode(owner, name string) nodeID {
	id := nodeID("field:" + owner + "." + name)
	if _, ok := sc.pf.desc[id]; !ok {
		sc.pf.desc[id] = owner + "." + name
	}
	return id
}

// nodeFor maps an object to its global node. Parameters and results of
// the enclosing function resolve through objMap; functions, package-level
// variables, and fields get package-qualified keys; anything else is a
// position-keyed local.
func (sc *pfScope) nodeFor(obj types.Object) nodeID {
	if obj == nil {
		return ""
	}
	if n, ok := sc.objMap[obj]; ok {
		return n
	}
	switch o := obj.(type) {
	case *types.Func:
		return nodeID("func:" + funcKey(o))
	case *types.Const, *types.TypeName, *types.Builtin, *types.Nil:
		return ""
	case *types.Var:
		if o.Pkg() != nil && o.Parent() == o.Pkg().Scope() {
			id := nodeID("var:" + o.Pkg().Path() + "." + o.Name())
			if _, ok := sc.pf.desc[id]; !ok {
				sc.pf.desc[id] = "package variable " + o.Pkg().Path() + "." + o.Name()
			}
			return id
		}
		if o.IsField() {
			// Reached only without selection info; approximate by name.
			return sc.fieldNode("anon", o.Name())
		}
	}
	id := nodeID("loc:" + sc.pf.fset.Position(obj.Pos()).String())
	if _, ok := sc.pf.desc[id]; !ok {
		sc.pf.desc[id] = "local " + obj.Name()
	}
	return id
}

// exprNodes returns the nodes an expression reads from, adding any edges
// its sub-expressions imply, and folds in the tainted-type source when
// the expression's type is declared private.
func (sc *pfScope) exprNodes(e ast.Expr) []nodeID {
	nodes, sanitized := sc.exprNodesInner(e)
	if !sanitized {
		if id, _, ok := sc.pf.taintedTypeOf(sc.pkg.Info.TypeOf(e)); ok {
			nodes = append(nodes, id)
		}
	}
	return nodes
}

func (sc *pfScope) exprNodesInner(e ast.Expr) ([]nodeID, bool) {
	switch x := e.(type) {
	case nil:
		return nil, false
	case *ast.Ident:
		obj := sc.pkg.Info.ObjectOf(x)
		if n := sc.nodeFor(obj); n != "" {
			return []nodeID{n}, false
		}
		return nil, false
	case *ast.BasicLit:
		return nil, false
	case *ast.ParenExpr:
		return sc.exprNodesInner(x.X)
	case *ast.SelectorExpr:
		if sel, ok := sc.pkg.Info.Selections[x]; ok {
			switch sel.Kind() {
			case types.FieldVal:
				sc.exprNodes(x.X)
				return []nodeID{sc.fieldNode(ownerName(sel.Recv()), sel.Obj().Name())}, false
			case types.MethodVal, types.MethodExpr:
				nodes := sc.exprNodes(x.X)
				if fn, ok := sel.Obj().(*types.Func); ok {
					nodes = append(nodes, nodeID("func:"+funcKey(fn)))
				}
				return nodes, false
			}
		}
		// Package-qualified identifier.
		obj := sc.pkg.Info.ObjectOf(x.Sel)
		if n := sc.nodeFor(obj); n != "" {
			return []nodeID{n}, false
		}
		return nil, false
	case *ast.CallExpr:
		return sc.callNodes(x)
	case *ast.StarExpr:
		return sc.exprNodesInner(x.X)
	case *ast.UnaryExpr:
		return sc.exprNodesInner(x.X)
	case *ast.BinaryExpr:
		return append(sc.exprNodes(x.X), sc.exprNodes(x.Y)...), false
	case *ast.IndexExpr:
		// Container read; generic instantiations read the function.
		nodes := sc.exprNodes(x.X)
		sc.exprNodes(x.Index)
		return nodes, false
	case *ast.IndexListExpr:
		return sc.exprNodesInner(x.X)
	case *ast.SliceExpr:
		nodes := sc.exprNodes(x.X)
		for _, ix := range []ast.Expr{x.Low, x.High, x.Max} {
			if ix != nil {
				sc.exprNodes(ix)
			}
		}
		return nodes, false
	case *ast.TypeAssertExpr:
		return sc.exprNodes(x.X), false
	case *ast.CompositeLit:
		return sc.compositeNodes(x), false
	case *ast.FuncLit:
		return sc.funcLitNodes(x), false
	case *ast.KeyValueExpr:
		return sc.exprNodesInner(x.Value)
	default:
		return nil, false
	}
}

// compositeNodes handles T{...}: element taint joins the literal's value
// and, for struct literals, lands on the named field's global node.
func (sc *pfScope) compositeNodes(lit *ast.CompositeLit) []nodeID {
	t := sc.pkg.Info.TypeOf(lit)
	var st *types.Struct
	owner := "anon"
	if t != nil {
		if s, ok := deref(t).Underlying().(*types.Struct); ok {
			st = s
			owner = ownerName(t)
		}
	}
	var all []nodeID
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			vals := sc.exprNodes(kv.Value)
			all = append(all, vals...)
			if st != nil {
				if key, ok := kv.Key.(*ast.Ident); ok {
					f := sc.fieldNode(owner, key.Name)
					for _, v := range vals {
						sc.pf.edge(v, f, kv.Pos(), "stored in "+sc.pf.describe(f))
					}
				}
			} else {
				// map literal: keys carry taint into the container too
				all = append(all, sc.exprNodes(kv.Key)...)
			}
			continue
		}
		vals := sc.exprNodes(elt)
		all = append(all, vals...)
		if st != nil && i < st.NumFields() {
			f := sc.fieldNode(owner, st.Field(i).Name())
			for _, v := range vals {
				sc.pf.edge(v, f, elt.Pos(), "stored in "+sc.pf.describe(f))
			}
		}
	}
	return all
}

func (sc *pfScope) funcLitNodes(lit *ast.FuncLit) []nodeID {
	sc.pf.litSeq++
	key := fmt.Sprintf("funclit@%s#%d", sc.pf.fset.Position(lit.Pos()), sc.pf.litSeq)
	sig, _ := sc.pkg.Info.TypeOf(lit).(*types.Signature)
	if sig == nil {
		return nil
	}
	fi := sc.pf.registerFunc(key, sig)
	fnode := nodeID("func:" + key)
	sc.pf.funcByNode[fnode] = fi
	sc.pf.defined[key] = fi

	child := &pfScope{pf: sc.pf, pkg: sc.pkg, fnKey: key, objMap: make(map[types.Object]nodeID, len(sc.objMap))}
	for k, v := range sc.objMap {
		child.objMap[k] = v // captured parameters/results of enclosing func
	}
	child.bindSignature(sig, fi)
	child.walkStmt(lit.Body)
	for _, r := range fi.results {
		sc.pf.edge(r, fnode, lit.Pos(), "returned from closure")
	}
	return []nodeID{fnode}
}

// tupleNodes evaluates a multi-value expression into n per-index sets.
func (sc *pfScope) tupleNodes(e ast.Expr, n int) [][]nodeID {
	sets := make([][]nodeID, n)
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if callee, _ := staticCallee(sc.pkg.Info, x); callee != nil {
			key := funcKey(callee)
			if fi := sc.pf.defined[key]; fi != nil && !pfSpecial(sc.pf, key) && len(fi.results) == n {
				sc.callNodes(x) // emit binding edges
				for i := range sets {
					sets[i] = []nodeID{fi.results[i]}
				}
				return sets
			}
		}
		union, sanitized := sc.callNodes(x)
		if sanitized {
			return sets
		}
		tup, _ := sc.pkg.Info.TypeOf(x).(*types.Tuple)
		for i := range sets {
			// An opaque call's error result does not absorb the smeared
			// argument union (see the approximations note atop this file).
			if tup != nil && i < tup.Len() && isErrorType(tup.At(i).Type()) {
				continue
			}
			sets[i] = union
		}
		return sets
	case *ast.TypeAssertExpr:
		sets[0] = sc.exprNodes(x.X)
		return sets
	case *ast.IndexExpr:
		sets[0] = sc.exprNodes(x.X)
		sc.exprNodes(x.Index)
		return sets
	case *ast.UnaryExpr: // v, ok := <-ch
		sets[0] = sc.exprNodes(x.X)
		return sets
	default:
		sets[0] = sc.exprNodes(e)
		return sets
	}
}

func pfSpecial(pf *privflow, key string) bool {
	_, sink := pf.sinks[key]
	return sink || pf.sanitizers[key]
}

func (sc *pfScope) callNodes(call *ast.CallExpr) ([]nodeID, bool) {
	info := sc.pkg.Info
	// Conversion T(x): taint passes through; the wrap in exprNodes adds
	// the target type's source node if T itself is private.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		var nodes []nodeID
		for _, a := range call.Args {
			nodes = append(nodes, sc.exprNodes(a)...)
		}
		return nodes, false
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return sc.builtinCall(b.Name(), call), false
		}
	}

	callee, recvExpr := staticCallee(info, call)
	if callee != nil {
		key := funcKey(callee)
		if sc.pf.sanitizers[key] {
			if recvExpr != nil {
				sc.exprNodes(recvExpr)
			}
			for _, a := range call.Args {
				sc.exprNodes(a)
			}
			return nil, true
		}
		if kind, isSink := sc.pf.sinks[key]; isSink {
			var argSets [][]nodeID
			var union []nodeID
			if recvExpr != nil {
				set := sc.exprNodes(recvExpr)
				argSets = append(argSets, set)
				union = append(union, set...)
			}
			for _, a := range call.Args {
				set := sc.exprNodes(a)
				argSets = append(argSets, set)
				union = append(union, set...)
			}
			if !sc.pkg.Dep {
				sc.pf.sinkCalls = append(sc.pf.sinkCalls, sinkCall{pos: call.Pos(), key: key, kind: kind, args: argSets})
			}
			return union, false
		}
		if fi := sc.pf.defined[key]; fi != nil {
			if recvExpr != nil && fi.recv != "" {
				for _, n := range sc.exprNodes(recvExpr) {
					sc.pf.edge(n, fi.recv, call.Pos(), "passed to "+sc.pf.describe(fi.recv))
				}
			}
			sc.bindArgs(call, fi)
			return fi.results, false
		}
		// External function without a loaded body: conservative — taint
		// in equals taint out, except into a bare error result.
		var union []nodeID
		if recvExpr != nil {
			union = append(union, sc.exprNodes(recvExpr)...)
		}
		for _, a := range call.Args {
			union = append(union, sc.exprNodes(a)...)
		}
		if isErrorType(info.TypeOf(call)) {
			return nil, false
		}
		return union, false
	}

	// Dynamic call through a function value. The smeared callee/argument
	// union is the imprecise fallback; result nodes of any syntactically
	// bound function stay precise and always flow out.
	calleeNodes := sc.exprNodes(call.Fun)
	var smear []nodeID
	smear = append(smear, calleeNodes...)
	var argSets [][]nodeID
	for _, a := range call.Args {
		set := sc.exprNodes(a)
		argSets = append(argSets, set)
		smear = append(smear, set...)
	}
	var precise []nodeID
	for _, cn := range calleeNodes {
		fi := sc.pf.funcByNode[cn]
		if fi == nil {
			continue
		}
		for i, set := range argSets {
			pi := i
			if pi >= len(fi.params) {
				if !fi.variadic || len(fi.params) == 0 {
					continue
				}
				pi = len(fi.params) - 1
			}
			for _, n := range set {
				sc.pf.edge(n, fi.params[pi], call.Pos(), "passed to "+sc.pf.describe(fi.params[pi]))
			}
		}
		precise = append(precise, fi.results...)
	}
	if isErrorType(info.TypeOf(call)) {
		return precise, false
	}
	return append(smear, precise...), false
}

func (sc *pfScope) bindArgs(call *ast.CallExpr, fi *funcInfo) {
	for i, a := range call.Args {
		set := sc.exprNodes(a)
		pi := i
		if pi >= len(fi.params) {
			if !fi.variadic || len(fi.params) == 0 {
				continue
			}
			pi = len(fi.params) - 1
		}
		for _, n := range set {
			sc.pf.edge(n, fi.params[pi], a.Pos(), "passed to "+sc.pf.describe(fi.params[pi]))
		}
	}
}

func (sc *pfScope) builtinCall(name string, call *ast.CallExpr) []nodeID {
	switch name {
	case "append", "min", "max":
		var union []nodeID
		for _, a := range call.Args {
			union = append(union, sc.exprNodes(a)...)
		}
		return union
	case "copy":
		if len(call.Args) == 2 {
			dst := sc.exprNodes(call.Args[0])
			for _, n := range sc.exprNodes(call.Args[1]) {
				for _, d := range dst {
					sc.pf.edge(n, d, call.Pos(), "copied into "+sc.pf.describe(d))
				}
			}
		}
		return nil
	default:
		// len/cap/make/new/delete/clear/close/panic/recover...: evaluate
		// arguments for nested-call edges; cardinality and allocation do
		// not carry the secret (len is the system's intended public
		// output — see package doc).
		for _, a := range call.Args {
			sc.exprNodes(a)
		}
		return nil
	}
}

// --- phase 3: reachability and reporting ------------------------------

type pfHop struct {
	from nodeID
	e    pfEdge
}

func (pf *privflow) solve() map[nodeID]pfHop {
	prev := make(map[nodeID]pfHop)
	seen := make(map[nodeID]bool, len(pf.seeds))
	queue := make([]nodeID, 0, len(pf.seeds))
	for id := range pf.seeds {
		seen[id] = true
		queue = append(queue, id)
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range pf.edges[n] {
			if seen[e.to] {
				continue
			}
			seen[e.to] = true
			prev[e.to] = pfHop{from: n, e: e}
			queue = append(queue, e.to)
		}
	}
	pf.reached = seen
	return prev
}

func (pf *privflow) reportIfTainted(scall sinkCall, prev map[nodeID]pfHop) {
	for _, set := range scall.args {
		for _, n := range set {
			if !pf.reached[n] {
				continue
			}
			root, rel := pf.witness(n, prev)
			label := pf.seeds[root]
			rel = append(rel, Related{Pos: pf.fset.Position(scall.pos), Note: "argument to sink " + scall.key})
			pf.pass.Report(scall.pos, rel,
				"private state (%s) flows un-sanitized into %s sink %s", label, scall.kind, shortKey(scall.key))
			return // one finding per sink call
		}
	}
}

// witness rebuilds the source→node hop list from the BFS predecessor map.
func (pf *privflow) witness(n nodeID, prev map[nodeID]pfHop) (nodeID, []Related) {
	var hops []pfHop
	cur := n
	for {
		h, ok := prev[cur]
		if !ok {
			break
		}
		hops = append(hops, h)
		cur = h.from
	}
	// hops is sink→source; reverse into flow order.
	rel := []Related{{Pos: pf.seedPos[cur], Note: "source: " + pf.seeds[cur] + " (" + pf.describe(cur) + ")"}}
	for i := len(hops) - 1; i >= 0; i-- {
		rel = append(rel, Related{Pos: hops[i].e.pos, Note: hops[i].e.note})
	}
	return cur, rel
}

// shortKey trims the module-internal prefix for readable messages.
func shortKey(key string) string {
	return strings.TrimPrefix(key, "ptm/internal/")
}
