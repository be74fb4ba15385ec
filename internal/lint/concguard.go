package lint

// concguard: the lock summaries behind the four concurrency-contract
// rules (lockorder, guardedby, atomicmix, rcu).
//
// The program model (program.go) walks every function of the loaded
// program once with the flow-sensitive held-lock tracker below,
// producing per-function summaries — direct lock acquisitions, call
// sites with held-set snapshots, guarded-field accesses, atomic
// accesses, and RCU loads/stores. The rules then run interprocedural fixed points over the
// summaries: transitive-acquisition chains for lockorder, and
// greatest-fixed-point "coverage" (is the guard held at every call site,
// transitively?) for guardedby/atomicmix/rcu.
//
// Contracts are declared in source with doc/field comments:
//
//	//ptm:lockorder a<b      (struct doc or field comment) lock a is
//	                         acquired before lock b; acquiring a while
//	                         holding b is an inversion. Pairs may be
//	                         space-separated in one directive.
//	//ptm:guardedby mu       (field comment) the field may only be
//	                         accessed while the sibling mutex mu is held;
//	                         writes need the write lock.
//	//ptm:rcu mu             (atomic.Pointer field comment) the pointer is
//	                         RCU-published: Store/Swap/CompareAndSwap
//	                         require mu; a loaded pointer must not be used
//	                         across a blocking call (readers re-load).
//	//ptm:exclusive why      (function doc) the function has exclusive
//	                         access to its data — constructor before
//	                         publication, rotation writer after a grace
//	                         period, quiescent consumer — so guardedby and
//	                         atomicmix do not apply inside it.
//	//ptm:blocking why       (function doc) calls to this function count
//	                         as blocking for the rcu retention check.
//
// Lock identity is type-qualified and instance-insensitive: `l.mu` in any
// method of wal.Log is the one key "ptm/internal/wal.Log.mu". That is the
// same granularity the prose contracts use ("syncMu before mu") and keeps
// the analysis tractable; per-instance cycles (two Logs locked in
// opposite orders) are out of scope, as is aliasing through interfaces.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// lockKey names a lock instance-insensitively: "pkg/path.Type.field" for
// a struct mutex field, "pkg/path.var" for a package-level mutex, or
// "local:<funcKey>.<name>" for a function-local mutex variable.
type lockKey string

// lockMode distinguishes read from write holds of an RWMutex. A plain
// sync.Mutex always holds in modeW.
type lockMode int

const (
	modeR lockMode = iota
	modeW
)

// lockSet maps held locks to the strongest mode they are held in.
type lockSet map[lockKey]lockMode

func (s lockSet) clone() lockSet {
	out := make(lockSet, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// add records a lock acquisition, keeping the stronger mode.
func (s lockSet) add(k lockKey, m lockMode) {
	if prev, ok := s[k]; !ok || m > prev {
		s[k] = m
	}
}

// holds reports whether k is held, at least in mode need.
func (s lockSet) holds(k lockKey, need lockMode) bool {
	m, ok := s[k]
	return ok && m >= need
}

// union folds o into s (may-held merge).
func (s lockSet) union(o lockSet) {
	for k, m := range o {
		s.add(k, m)
	}
}

// intersect keeps only locks held in both, at the weaker mode
// (must-held merge).
func (s lockSet) intersect(o lockSet) {
	for k, m := range s {
		om, ok := o[k]
		if !ok {
			delete(s, k)
			continue
		}
		if om < m {
			s[k] = om
		}
	}
}

func (s lockSet) keysSorted() []lockKey {
	out := make([]lockKey, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// cgAcquire is one direct Lock/RLock call site.
type cgAcquire struct {
	lock lockKey
	mode lockMode
	pos  token.Pos
	// held is the must-held set at the moment of acquisition — the
	// source of hold-while-acquiring edges.
	held lockSet
}

// cgCallSite is one direct call to a known (source-loaded) function.
type cgCallSite struct {
	callee string // funcKey
	pos    token.Pos
	// mustHeld is the must-held set at the call — used both for
	// hold-while-acquiring edges through the callee and for guard
	// coverage of the callee's accesses.
	mustHeld lockSet
	// goCall marks `go f(...)`: the callee runs without our locks.
	goCall bool
}

// cgAccess is one syntactic access to a struct field.
type cgAccess struct {
	field string // fieldKey "pkg/path.Type.field"
	pos   token.Pos
	write bool
	// mayHeld is the may-held set at the access (used to prove the guard
	// is NOT held: absence from may-held is definitive).
	mayHeld lockSet
	// atomicArg marks accesses inside the arguments of a sync/atomic
	// call — the sanctioned access mode for atomicmix.
	atomicArg bool
	// addrOf marks address-taken accesses (&x.f) outside atomic calls.
	// For atomic-typed fields a pointer escape is still atomic usage;
	// for guarded fields it is conservatively a write.
	addrOf bool
	// rangeKeyOnly marks `for i := range x.f` with no value variable and
	// len/cap-only uses: slice-header reads, safe concurrently.
	rangeKeyOnly bool
}

// cgRCUOp is one Load/Store/Swap/CompareAndSwap on an annotated
// atomic.Pointer field.
type cgRCUOp struct {
	field    string // fieldKey
	op       string // "Load", "Store", "Swap", "CompareAndSwap"
	pos      token.Pos
	mustHeld lockSet
	// target is the variable a Load's result is bound to (nil when the
	// result is used inline or discarded), and bindPos the position of
	// the binding assignment. A later re-binding of the same variable
	// supersedes this op for the retention check: uses past the re-Load
	// hold the fresh snapshot.
	target  types.Object
	bindPos token.Pos
}

// objUse is one identifier use inside a function body.
type objUse struct {
	obj types.Object
	pos token.Pos
}

// declaredEdge is one //ptm:lockorder a<b pair.
type declaredEdge struct {
	before, after lockKey
	pos           token.Pos
}

type callerRef struct {
	caller string // funcKey of the calling function
	site   cgCallSite
}

// guardFact ties a guarded field to its guard lock.
type guardFact struct {
	guard   lockKey
	guardRW bool // guard is an RWMutex (read holds exist)
	pos     token.Pos
	owner   string // owning struct's full name, for messages
	name    string // bare field name
}

// --- type helpers -----------------------------------------------------

func isMutexType(t types.Type) bool   { return namedIs(t, "sync", "Mutex") }
func isRWMutexType(t types.Type) bool { return namedIs(t, "sync", "RWMutex") }

func namedIs(t types.Type, pkg, name string) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkg
}

// isAtomicType reports whether t is one of the sync/atomic value types
// (atomic.Uint64, atomic.Pointer[T], ...).
func isAtomicType(t types.Type) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// isAtomicPointerType reports whether t is atomic.Pointer[T].
func isAtomicPointerType(t types.Type) bool {
	return isAtomicType(t) && namedIs(t, "sync/atomic", "Pointer")
}

// fieldKeyOf resolves a selector expression to the instance-insensitive
// key of the struct field it denotes, or "" when it is not a field
// selection on a named struct.
func fieldKeyOf(info *types.Info, sel *ast.SelectorExpr) string {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !v.IsField() {
		return ""
	}
	// Owner: walk to the named type the field was selected through. For
	// embedded chains the direct recv type still names the outer struct;
	// using the field's position within it keeps keys consistent with the
	// annotation side, which also keys by the declaring struct. Prefer
	// the declaring struct when we can find it.
	if owner := declaringStruct(s.Recv(), v); owner != "" {
		return owner + "." + v.Name()
	}
	return ""
}

// declaringStruct finds the full name of the named struct type that
// declares field v, searching recv and its embedded structs.
func declaringStruct(recv types.Type, v *types.Var) string {
	seen := make(map[string]bool)
	var find func(t types.Type) string
	find = func(t types.Type) string {
		n, ok := deref(t).(*types.Named)
		if !ok {
			return ""
		}
		full := namedFullName(n)
		if seen[full] {
			return ""
		}
		seen[full] = true
		st, ok := n.Underlying().(*types.Struct)
		if !ok {
			return ""
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f == v {
				return full
			}
			if f.Embedded() {
				if got := find(f.Type()); got != "" {
					return got
				}
			}
		}
		return ""
	}
	return find(recv)
}

// lockKeyOf resolves the receiver expression of a Lock/Unlock call (the
// `l.mu` in `l.mu.Lock()`) to a lock key.
func lockKeyOf(info *types.Info, enclosing string, e ast.Expr) (lockKey, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if key := fieldKeyOf(info, e); key != "" {
			return lockKey(key), true
		}
		// Package-qualified var: pkg.Mu.
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				return lockKey(pn.Imported().Path() + "." + e.Sel.Name), true
			}
		}
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil || obj.Pkg() == nil {
			return "", false
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return lockKey(obj.Pkg().Path() + "." + obj.Name()), true
		}
		return lockKey("local:" + enclosing + "." + obj.Name()), true
	}
	return "", false
}

// --- the flow-sensitive walker ---------------------------------------

// walkState carries the must/may held sets through a function body.
type walkState struct {
	must lockSet
	may  lockSet
	// terminated marks a path that ends in return/panic; it contributes
	// nothing to merges.
	terminated bool
}

func newWalkState() *walkState {
	return &walkState{must: make(lockSet), may: make(lockSet)}
}

func (w *walkState) clone() *walkState {
	return &walkState{must: w.must.clone(), may: w.may.clone(), terminated: w.terminated}
}

// merge folds a branch's exit state into w (w = join of both paths).
func (w *walkState) merge(o *walkState) {
	if o.terminated {
		return
	}
	if w.terminated {
		w.must, w.may, w.terminated = o.must, o.may, false
		return
	}
	w.must.intersect(o.must)
	w.may.union(o.may)
}

// funcWalker accumulates one function's summary.
type funcWalker struct {
	m    *program
	fn   *progFunc
	info *types.Info
	// lits queues function literals for analysis as separate roots.
	lits []*ast.FuncLit
}

// walkFunc summarizes a declared function and the function literals in
// its body. Literals run on their own goroutine's schedule (or at least
// at unknown call sites): each is analyzed as a root with nothing held.
func (m *program) walkFunc(f *progFunc) {
	w := &funcWalker{m: m, fn: f, info: f.pkg.Info}
	w.walkStmts(f.decl.Body.List, newWalkState())
	for i := 0; i < len(w.lits); i++ {
		lit := w.lits[i]
		lf := &progFunc{key: f.key + fmt.Sprintf("$lit%d", i+1), pos: lit.Pos(), pkg: f.pkg}
		f.lits = append(f.lits, lf)
		lw := &funcWalker{m: m, fn: lf, info: f.pkg.Info}
		lw.walkStmts(lit.Body.List, newWalkState())
		w.lits = append(w.lits, lw.lits...)
	}
}

// walkStmts walks a statement list, threading the held-set state.
func (w *funcWalker) walkStmts(stmts []ast.Stmt, st *walkState) {
	for _, s := range stmts {
		if st.terminated {
			return
		}
		w.walkStmt(s, st)
	}
}

func (w *funcWalker) walkStmt(s ast.Stmt, st *walkState) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.walkExpr(s.X, st, false)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.walkExpr(rhs, st, false)
		}
		for _, lhs := range s.Lhs {
			w.walkExpr(lhs, st, true)
		}
		w.recordRCUBinding(s, st)
	case *ast.IncDecStmt:
		w.walkExpr(s.X, st, true)
	case *ast.DeferStmt:
		// Deferred unlocks run at return: the lock stays held for the
		// rest of the body, which is exactly what not processing the
		// unlock models. Other deferred work runs with end-of-function
		// state we do not model; walk the arguments only.
		if w.lockCallKind(s.Call) == "" {
			for _, a := range s.Call.Args {
				w.walkExpr(a, st, false)
			}
			if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
				w.lits = append(w.lits, lit)
			}
		}
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			w.walkExpr(a, st, false)
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.lits = append(w.lits, lit)
		} else if callee := w.calleeKey(s.Call); callee != "" {
			w.fn.calls = append(w.fn.calls, cgCallSite{
				callee: callee, pos: s.Call.Pos(), mustHeld: make(lockSet), goCall: true,
			})
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.walkExpr(r, st, false)
		}
		st.terminated = true
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		w.walkExpr(s.Cond, st, false)
		then := st.clone()
		w.walkStmts(s.Body.List, then)
		elseSt := st.clone()
		if s.Else != nil {
			w.walkStmt(s.Else, elseSt)
		}
		*st = *then
		st.merge(elseSt)
	case *ast.BlockStmt:
		w.walkStmts(s.List, st)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			w.walkExpr(s.Cond, st, false)
		}
		body := st.clone()
		w.walkStmts(s.Body.List, body)
		if s.Post != nil && !body.terminated {
			w.walkStmt(s.Post, body)
		}
		// The loop may run zero times: join the body's exit with entry.
		// A body that always returns still falls through via the loop
		// condition going false (or not, for `for {}` — close enough).
		body.terminated = false
		st.merge(body)
	case *ast.RangeStmt:
		w.walkRangeExpr(s, st)
		body := st.clone()
		w.walkStmts(s.Body.List, body)
		body.terminated = false
		st.merge(body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			w.walkExpr(s.Tag, st, false)
		}
		w.walkCases(s.Body, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		w.walkStmt(s.Assign, st)
		w.walkCases(s.Body, st)
	case *ast.SelectStmt:
		w.fn.blockPts = append(w.fn.blockPts, s.Pos())
		w.walkCases(s.Body, st)
	case *ast.SendStmt:
		// The value is evaluated before the send blocks: the blocking
		// point is the statement's end, so uses inside the send are fine.
		w.walkExpr(s.Chan, st, false)
		w.walkExpr(s.Value, st, false)
		w.fn.blockPts = append(w.fn.blockPts, s.End())
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.walkExpr(v, st, false)
					}
				}
			}
		}
	case *ast.BranchStmt:
		// break/continue/goto: approximated as straight-line.
	case *ast.EmptyStmt:
	default:
		// Conservatively walk any other statement's expressions.
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.walkExpr(e, st, false)
				return false
			}
			return true
		})
	}
}

// walkCases merges every case clause of a switch/select body.
func (w *funcWalker) walkCases(body *ast.BlockStmt, st *walkState) {
	merged := st.clone()
	merged.terminated = true // so the first clause replaces it
	for _, c := range body.List {
		cs := st.clone()
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.walkExpr(e, cs, false)
			}
			w.walkStmts(c.Body, cs)
		case *ast.CommClause:
			if c.Comm != nil {
				w.walkStmt(c.Comm, cs)
			}
			w.walkStmts(c.Body, cs)
		}
		merged.merge(cs)
	}
	// A switch without a default may skip every case.
	merged.merge(st)
	*st = *merged
}

// walkRangeExpr records the range expression, exempting key-only ranges
// over a field (slice-header read). Ranging over a channel blocks.
func (w *funcWalker) walkRangeExpr(s *ast.RangeStmt, st *walkState) {
	if t := w.info.TypeOf(s.X); t != nil {
		if _, ok := t.Underlying().(*types.Chan); ok {
			w.fn.blockPts = append(w.fn.blockPts, s.Pos())
		}
	}
	if sel, ok := ast.Unparen(s.X).(*ast.SelectorExpr); ok && s.Value == nil {
		if key := fieldKeyOf(w.info, sel); key != "" {
			w.walkExpr(sel.X, st, false)
			w.fn.accesses = append(w.fn.accesses, cgAccess{
				field: key, pos: sel.Pos(), mayHeld: st.may.clone(), rangeKeyOnly: true,
			})
			return
		}
	}
	w.walkExpr(s.X, st, false)
}

// lockCallKind classifies call as "Lock", "RLock", "Unlock", "RUnlock"
// on a sync mutex, or "" when it is none of those.
func (w *funcWalker) lockCallKind(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return ""
	}
	recv := w.info.TypeOf(sel.X)
	if recv == nil || (!isMutexType(recv) && !isRWMutexType(recv)) {
		return ""
	}
	return sel.Sel.Name
}

// calleeKey is the funcKey of the call's static callee, or "".
func (w *funcWalker) calleeKey(call *ast.CallExpr) string {
	if fn, _ := staticCallee(w.info, call); fn != nil {
		return funcKey(fn)
	}
	return ""
}

// atomicCallee reports whether call targets a sync/atomic function or a
// method on a sync/atomic type, returning the bare name ("OrUint64",
// "Load", "Store", ...).
func (w *funcWalker) atomicCallee(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if pn, ok := w.info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "sync/atomic" {
			return sel.Sel.Name, true
		}
	}
	if recv := w.info.TypeOf(sel.X); recv != nil && isAtomicType(recv) {
		return sel.Sel.Name, true
	}
	return "", false
}

// blockingCall reports whether a call blocks for the rcu retention rule.
// Mutex acquisition deliberately does not count: the short guard-draw in
// the lock-free planes (e.g. an RNG draw under a mutex) is not a grace
// period. //ptm:blocking extends the set.
func (w *funcWalker) blockingCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	recv := w.info.TypeOf(sel.X)
	if recv != nil {
		if sel.Sel.Name == "Wait" && (namedIs(recv, "sync", "Cond") || namedIs(recv, "sync", "WaitGroup")) {
			return true
		}
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if pn, ok := w.info.Uses[id].(*types.PkgName); ok {
			p := pn.Imported().Path()
			if (p == "time" && sel.Sel.Name == "Sleep") || (p == "runtime" && sel.Sel.Name == "Gosched") {
				return true
			}
		}
	}
	if callee := w.calleeKey(call); callee != "" {
		if f, ok := w.m.funcs[callee]; ok && f.has(factBlocking) {
			return true
		}
	}
	return false
}

// walkExpr records lock transitions, call sites, field accesses, and
// rcu/atomic operations in e. write marks LHS context.
func (w *funcWalker) walkExpr(e ast.Expr, st *walkState, write bool) {
	switch e := e.(type) {
	case *ast.CallExpr:
		w.walkCall(e, st)
	case *ast.FuncLit:
		w.lits = append(w.lits, e)
	case *ast.SelectorExpr:
		w.recordSelector(e, st, write, false)
	case *ast.Ident:
		w.recordIdentUse(e)
	case *ast.IndexExpr:
		w.walkExpr(e.X, st, write)
		w.walkExpr(e.Index, st, false)
	case *ast.IndexListExpr:
		w.walkExpr(e.X, st, write)
		for _, i := range e.Indices {
			w.walkExpr(i, st, false)
		}
	case *ast.SliceExpr:
		w.walkExpr(e.X, st, write)
		for _, x := range []ast.Expr{e.Low, e.High, e.Max} {
			if x != nil {
				w.walkExpr(x, st, false)
			}
		}
	case *ast.StarExpr:
		w.walkExpr(e.X, st, write)
	case *ast.UnaryExpr:
		switch e.Op {
		case token.AND:
			// &x.f: the pointer escapes the guard's scope — record it as
			// an address-taken write of the field.
			w.recordAddrOf(e.X, st)
		case token.ARROW:
			// <-ch blocks; the receive completing is the blocking point.
			w.walkExpr(e.X, st, false)
			w.fn.blockPts = append(w.fn.blockPts, e.End())
		default:
			w.walkExpr(e.X, st, false)
		}
	case *ast.ParenExpr:
		w.walkExpr(e.X, st, write)
	case *ast.BinaryExpr:
		w.walkExpr(e.X, st, false)
		w.walkExpr(e.Y, st, false)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.walkExpr(kv.Value, st, false)
				continue
			}
			w.walkExpr(el, st, false)
		}
	case *ast.KeyValueExpr:
		w.walkExpr(e.Value, st, false)
	case *ast.TypeAssertExpr:
		w.walkExpr(e.X, st, false)
	}
}

// walkCall handles lock transitions, atomic calls, rcu ops, builtins,
// and ordinary call sites.
func (w *funcWalker) walkCall(call *ast.CallExpr, st *walkState) {
	// Lock/Unlock on a resolvable mutex expression.
	if kind := w.lockCallKind(call); kind != "" {
		sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		key, ok := lockKeyOf(w.info, w.fn.key, sel.X)
		if !ok {
			return
		}
		switch kind {
		case "Lock", "TryLock":
			w.fn.acquires = append(w.fn.acquires, cgAcquire{
				lock: key, mode: modeW, pos: call.Pos(), held: st.must.clone(),
			})
			st.must.add(key, modeW)
			st.may.add(key, modeW)
		case "RLock", "TryRLock":
			w.fn.acquires = append(w.fn.acquires, cgAcquire{
				lock: key, mode: modeR, pos: call.Pos(), held: st.must.clone(),
			})
			st.must.add(key, modeR)
			st.may.add(key, modeR)
		case "Unlock", "RUnlock":
			delete(st.must, key)
			delete(st.may, key)
		}
		return
	}

	// sync/atomic: the field operands are atomic accesses, and annotated
	// atomic.Pointer fields get rcu op records.
	if name, ok := w.atomicCallee(call); ok {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if fsel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
				if key := fieldKeyOf(w.info, fsel); key != "" {
					if _, rcu := w.m.rcuFields[key]; rcu {
						w.fn.rcuOps = append(w.fn.rcuOps, cgRCUOp{
							field: key, op: name, pos: call.Pos(), mustHeld: st.must.clone(),
						})
					}
				}
			}
		}
		for _, a := range call.Args {
			w.markAtomicOperand(a, st)
			w.walkExprSkippingFields(a, st)
		}
		return
	}

	// Builtins with access semantics.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "len", "cap":
			if sel, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); ok {
				if key := fieldKeyOf(w.info, sel); key != "" {
					w.walkExpr(sel.X, st, false)
					w.fn.accesses = append(w.fn.accesses, cgAccess{
						field: key, pos: sel.Pos(), mayHeld: st.may.clone(), rangeKeyOnly: true,
					})
					return
				}
			}
		case "clear", "delete":
			w.walkExpr(call.Args[0], st, true)
			for _, a := range call.Args[1:] {
				w.walkExpr(a, st, false)
			}
			return
		case "copy":
			w.walkExpr(call.Args[0], st, true)
			w.walkExpr(call.Args[1], st, false)
			return
		case "panic":
			for _, a := range call.Args {
				w.walkExpr(a, st, false)
			}
			st.terminated = true
			return
		}
	}

	// Ordinary call: walk the function expression (its base is a read)
	// and arguments, record blocking-ness and the call site.
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		// Method value receivers and package selectors: record accesses
		// in the receiver chain, but the selector itself is a method, not
		// a field.
		if s, isField := w.info.Selections[fun]; isField && s.Kind() == types.FieldVal {
			// Calling a func-typed field: the field itself is read.
			w.recordSelector(fun, st, false, false)
		} else {
			w.walkExpr(fun.X, st, false)
		}
	case *ast.FuncLit:
		w.lits = append(w.lits, fun)
	case *ast.Ident:
		// Direct call (or conversion): the callee is resolved via
		// calleeKey below; an identifier in call position is not an
		// address-taken function reference.
	default:
		w.walkExpr(call.Fun, st, false)
	}
	for _, a := range call.Args {
		w.walkExpr(a, st, false)
	}
	if w.blockingCall(call) {
		// Arguments are evaluated before the call blocks: the blocking
		// point is the call's end.
		w.fn.blockPts = append(w.fn.blockPts, call.End())
	}
	if callee := w.calleeKey(call); callee != "" {
		w.fn.calls = append(w.fn.calls, cgCallSite{
			callee: callee, pos: call.Pos(), mustHeld: st.must.clone(),
		})
	}
}

// markAtomicOperand records field selectors inside a sync/atomic call
// argument as atomic accesses and infers atomic fields from
// address-taken operands (`&b.words[i]`).
func (w *funcWalker) markAtomicOperand(a ast.Expr, st *walkState) {
	addrOf := false
	if u, ok := ast.Unparen(a).(*ast.UnaryExpr); ok && u.Op == token.AND {
		addrOf = true
	}
	ast.Inspect(a, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		key := fieldKeyOf(w.info, sel)
		if key == "" {
			return true
		}
		if addrOf {
			if _, seen := w.m.atomicFields[key]; !seen {
				w.m.atomicFields[key] = sel.Pos()
			}
		}
		w.fn.accesses = append(w.fn.accesses, cgAccess{
			field: key, pos: sel.Pos(), mayHeld: st.may.clone(), atomicArg: true,
		})
		return false
	})
}

// walkExprSkippingFields walks an atomic-call argument for nested calls
// and identifier uses without re-recording its field selectors (those
// were recorded as atomic accesses).
func (w *funcWalker) walkExprSkippingFields(a ast.Expr, st *walkState) {
	ast.Inspect(a, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			w.walkCall(n, st)
			return false
		case *ast.SelectorExpr:
			return false
		case *ast.Ident:
			w.recordIdentUse(n)
		}
		return true
	})
}

// recordSelector records a field access (and address-taken functions).
func (w *funcWalker) recordSelector(sel *ast.SelectorExpr, st *walkState, write, atomicArg bool) {
	// A method referenced outside call position is address-taken.
	if s, ok := w.info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		if f, ok := s.Obj().(*types.Func); ok {
			w.m.addressTaken[funcKey(f)] = true
		}
		w.walkExpr(sel.X, st, false)
		return
	}
	if f, ok := w.info.Uses[sel.Sel].(*types.Func); ok {
		w.m.addressTaken[funcKey(f)] = true
		return
	}
	if key := fieldKeyOf(w.info, sel); key != "" {
		w.fn.accesses = append(w.fn.accesses, cgAccess{
			field: key, pos: sel.Pos(), write: write,
			mayHeld: st.may.clone(), atomicArg: atomicArg,
		})
		w.walkExpr(sel.X, st, false)
		return
	}
	// The selection itself is not a recordable field (an anonymous-struct
	// member, say): the write lands on the base — `l.stats.appends++`
	// writes the guarded field stats.
	w.walkExpr(sel.X, st, write)
}

// recordAddrOf handles &expr: when the operand bottoms out in a struct
// field (possibly through index/slice steps), the field's address
// escapes and is recorded as an address-taken write.
func (w *funcWalker) recordAddrOf(e ast.Expr, st *walkState) {
	base := ast.Unparen(e)
	for {
		switch b := base.(type) {
		case *ast.IndexExpr:
			w.walkExpr(b.Index, st, false)
			base = ast.Unparen(b.X)
			continue
		case *ast.SliceExpr:
			for _, x := range []ast.Expr{b.Low, b.High, b.Max} {
				if x != nil {
					w.walkExpr(x, st, false)
				}
			}
			base = ast.Unparen(b.X)
			continue
		}
		break
	}
	if sel, ok := base.(*ast.SelectorExpr); ok {
		if key := fieldKeyOf(w.info, sel); key != "" {
			w.fn.accesses = append(w.fn.accesses, cgAccess{
				field: key, pos: sel.Pos(), write: true,
				mayHeld: st.may.clone(), addrOf: true,
			})
			w.walkExpr(sel.X, st, false)
			return
		}
	}
	w.walkExpr(e, st, true)
}

// recordIdentUse tracks identifier uses (rcu retention) and
// address-taken functions.
func (w *funcWalker) recordIdentUse(id *ast.Ident) {
	obj := w.info.Uses[id]
	if obj == nil {
		return
	}
	if f, ok := obj.(*types.Func); ok {
		w.m.addressTaken[funcKey(f)] = true
		return
	}
	w.fn.usesAfter = append(w.fn.usesAfter, objUse{obj: obj, pos: id.Pos()})
}

// recordRCUBinding captures `x := field.Load()` so the retention check
// can follow x.
func (w *funcWalker) recordRCUBinding(s *ast.AssignStmt, st *walkState) {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return
	}
	id, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	var obj types.Object
	if s.Tok == token.DEFINE {
		obj = w.info.Defs[id]
	} else {
		obj = w.info.Uses[id]
	}
	if obj == nil {
		return
	}
	call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Load" && sel.Sel.Name != "Swap") {
		return
	}
	fsel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return
	}
	key := fieldKeyOf(w.info, fsel)
	if key == "" {
		return
	}
	if _, rcu := w.m.rcuFields[key]; !rcu {
		return
	}
	// Attach the binding target to the op recorded by walkCall (it is
	// the most recent op on this field at this position).
	for i := len(w.fn.rcuOps) - 1; i >= 0; i-- {
		op := &w.fn.rcuOps[i]
		if op.field == key && op.pos == call.Pos() {
			op.target = obj
			op.bindPos = s.Pos()
			break
		}
	}
	_ = st
}

// --- interprocedural coverage ----------------------------------------

// exclusiveCovered computes, for every function, whether all execution
// paths reaching it come from //ptm:exclusive functions (greatest fixed
// point: assume covered, knock out).
func (m *program) exclusiveCovered() map[string]bool {
	cov := make(map[string]bool, len(m.funcs))
	for k, f := range m.funcs {
		// Literal roots and address-taken functions have unknown callers.
		cov[k] = f.has(factExclusive) || (!m.addressTaken[k] && len(m.callers[k]) > 0)
	}
	for changed := true; changed; {
		changed = false
		for k, f := range m.funcs {
			if !cov[k] || f.has(factExclusive) {
				continue
			}
			for _, ref := range m.callers[k] {
				if ref.site.goCall || !cov[ref.caller] {
					cov[k] = false
					changed = true
					break
				}
			}
		}
	}
	return cov
}

// covered computes whether lock g (in mode need) is held on every path
// into each function: at every call site the guard is in the caller's
// must-held set, or the caller is itself covered, or the caller runs
// exclusively. Greatest fixed point, memoized per (guard, mode).
func (m *program) covered(g lockKey, need lockMode) map[string]bool {
	if cov, ok := m.coverage[guardNeed{g, need}]; ok {
		return cov
	}
	cov := make(map[string]bool, len(m.funcs))
	for k := range m.funcs {
		cov[k] = !m.addressTaken[k] && len(m.callers[k]) > 0
	}
	for changed := true; changed; {
		changed = false
		for k := range m.funcs {
			if !cov[k] {
				continue
			}
			for _, ref := range m.callers[k] {
				siteOK := !ref.site.goCall &&
					(ref.site.mustHeld.holds(g, need) || cov[ref.caller] || m.exclusive[ref.caller])
				if !siteOK {
					cov[k] = false
					changed = true
					break
				}
			}
		}
	}
	m.coverage[guardNeed{g, need}] = cov
	return cov
}

// uncoveredSite returns one call site that breaks g's coverage of f, for
// witness paths. Returns the zero ref when none is found.
func (m *program) uncoveredSite(fk string, g lockKey, need lockMode) (callerRef, bool) {
	if m.addressTaken[fk] {
		return callerRef{}, false
	}
	cov := m.covered(g, need)
	for _, ref := range m.callers[fk] {
		if ref.site.goCall || (!ref.site.mustHeld.holds(g, need) && !cov[ref.caller] && !m.exclusive[ref.caller]) {
			return ref, true
		}
	}
	return callerRef{}, false
}

// --- shared reporting helpers ----------------------------------------

// shortLock renders a lock key for messages: "Type.field" or "pkg.var".
func shortLock(k lockKey) string {
	return shortKey(string(k))
}

// nonDepPos reports whether pos lies in a non-dependency package, where
// findings may be anchored.
func (m *program) nonDepPos(pos token.Pos) bool {
	return m.target[m.fset.Position(pos).Filename]
}

// funcLabel renders a function key for messages ("Type.Method" or
// "pkg.func", literals as "Type.Method$litN").
func funcLabel(key string) string {
	return shortKey(key)
}
