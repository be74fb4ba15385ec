package lint

// lockorder infers the module-wide may-hold-while-acquiring graph and
// checks it against //ptm:lockorder declarations and for cycles.
//
// Every direct Lock/RLock call site contributes edges held→acquired for
// each lock in the must-held set at that point; every call site whose
// callee transitively acquires locks contributes held→acquired edges
// through the call chain (goroutine launches excluded — the spawned
// goroutine does not run under the spawner's locks). Declared
// //ptm:lockorder a<b edges are seeded into the same graph. A finding is
// either an inversion of a declared edge or a cycle among inferred
// edges, reported with the full acquisition-path witness: where the
// outer lock is held, each call hop, and the inner acquisition.

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// LockOrder returns the lockorder analyzer.
func LockOrder() *Analyzer {
	return &Analyzer{
		Name:       "lockorder",
		Doc:        "lock acquisition order matches //ptm:lockorder declarations and the inferred hold-while-acquiring graph is acyclic",
		RunProgram: runLockOrder,
	}
}

// acqChain is the witness for "f may acquire lock": the call hops from
// f's body down to the acquisition, in flow order.
type acqChain []Related

// cgEdge is one inferred hold-while-acquiring edge with its first
// discovered witness.
type cgEdge struct {
	from, to lockKey
	anchor   token.Pos // position of the acquisition or call creating the edge
	hops     []Related
}

func runLockOrder(pass *ProgramPass) {
	m := pass.prog

	// transAcq[f][lock] is the witness chain by which f may (transitively)
	// acquire lock. First witness wins; functions are visited in source
	// order for determinism.
	funcs := m.sorted
	trans := make(map[string]map[lockKey]acqChain, len(funcs))
	for _, f := range funcs {
		t := make(map[lockKey]acqChain)
		for _, a := range f.acquires {
			if _, ok := t[a.lock]; !ok {
				t[a.lock] = acqChain{m.rel(a.pos, fmt.Sprintf("%s acquires %s", funcLabel(f.key), shortLock(a.lock)))}
			}
		}
		trans[f.key] = t
	}
	for changed := true; changed; {
		changed = false
		for _, f := range funcs {
			t := trans[f.key]
			for _, c := range f.calls {
				if c.goCall {
					continue
				}
				ct, ok := trans[c.callee]
				if !ok {
					continue
				}
				for _, lk := range sortedLockKeys(ct) {
					if _, have := t[lk]; have {
						continue
					}
					hop := m.rel(c.pos, fmt.Sprintf("%s calls %s", funcLabel(f.key), funcLabel(c.callee)))
					t[lk] = append(acqChain{hop}, ct[lk]...)
					changed = true
				}
			}
		}
	}

	// Inferred edges: direct acquisitions and transitive acquisitions
	// through calls, each while a lock is must-held.
	edges := make(map[[2]lockKey]*cgEdge)
	addEdge := func(from, to lockKey, anchor token.Pos, hops []Related) {
		k := [2]lockKey{from, to}
		if _, ok := edges[k]; ok {
			return
		}
		edges[k] = &cgEdge{from: from, to: to, anchor: anchor, hops: hops}
	}
	for _, f := range funcs {
		for _, a := range f.acquires {
			for _, h := range a.held.keysSorted() {
				addEdge(h, a.lock, a.pos, []Related{
					m.rel(a.pos, fmt.Sprintf("%s acquires %s while holding %s", funcLabel(f.key), shortLock(a.lock), shortLock(h))),
				})
			}
		}
		for _, c := range f.calls {
			if c.goCall || len(c.mustHeld) == 0 {
				continue
			}
			ct, ok := trans[c.callee]
			if !ok {
				continue
			}
			for _, lk := range sortedLockKeys(ct) {
				for _, h := range c.mustHeld.keysSorted() {
					hops := append([]Related{
						m.rel(c.pos, fmt.Sprintf("%s calls %s while holding %s", funcLabel(f.key), funcLabel(c.callee), shortLock(h))),
					}, ct[lk]...)
					addEdge(h, lk, c.pos, hops)
				}
			}
		}
	}

	// Declared-order violations: an inferred edge b→a against a declared
	// a<b means a was acquired while b was held.
	type pair = [2]lockKey
	violated := make(map[pair]bool)
	decls := append([]declaredEdge(nil), m.declared...)
	sort.Slice(decls, func(i, j int) bool {
		if decls[i].before != decls[j].before {
			return decls[i].before < decls[j].before
		}
		return decls[i].after < decls[j].after
	})
	declaredSet := make(map[pair]declaredEdge, len(decls))
	for _, d := range decls {
		declaredSet[pair{d.before, d.after}] = d
	}
	for _, d := range decls {
		inv, ok := edges[pair{d.after, d.before}]
		if !ok || !m.nonDepPos(inv.anchor) {
			continue
		}
		violated[pair{d.after, d.before}] = true
		related := append([]Related{
			m.rel(d.pos, fmt.Sprintf("order %s < %s declared here", shortLock(d.before), shortLock(d.after))),
		}, inv.hops...)
		pass.Report(inv.anchor, related,
			"%s acquired while %s is held, inverting declared order //ptm:lockorder %s<%s",
			shortLock(d.before), shortLock(d.after), shortLock(d.before), shortLock(d.after))
	}

	// Cycle detection over inferred ∪ declared edges. Declared edges are
	// real constraints even when no code path exercises them yet; a
	// declared a<b plus an inferred b→a is already reported above and is
	// skipped here.
	adj := make(map[lockKey][]lockKey)
	addAdj := func(from, to lockKey) {
		for _, t := range adj[from] {
			if t == to {
				return
			}
		}
		adj[from] = append(adj[from], to)
	}
	for k := range edges {
		addAdj(k[0], k[1])
	}
	for _, d := range decls {
		addAdj(d.before, d.after)
	}
	for from := range adj {
		sort.Slice(adj[from], func(i, j int) bool { return adj[from][i] < adj[from][j] })
	}
	nodes := make([]lockKey, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	reported := make(map[string]bool)
	var stack []lockKey
	onStack := make(map[lockKey]int)
	var visit func(n lockKey)
	visited := make(map[lockKey]bool)
	visit = func(n lockKey) {
		onStack[n] = len(stack)
		stack = append(stack, n)
		for _, next := range adj[n] {
			if i, ok := onStack[next]; ok {
				m.reportCycle(pass, stack[i:], edges, declaredSet, violated, reported)
				continue
			}
			if !visited[next] {
				visited[next] = true
				visit(next)
			}
		}
		stack = stack[:len(stack)-1]
		delete(onStack, n)
	}
	for _, n := range nodes {
		if !visited[n] {
			visited[n] = true
			visit(n)
		}
	}
}

// reportCycle reports one lock-order cycle unless every edge of it was
// already reported as a declared-order violation or no edge is anchored
// in a linted package.
func (m *program) reportCycle(pass *ProgramPass, cycle []lockKey, edges map[[2]lockKey]*cgEdge, declared map[[2]lockKey]declaredEdge, violated map[[2]lockKey]bool, reported map[string]bool) {
	names := make([]string, len(cycle))
	for i, n := range cycle {
		names[i] = string(n)
	}
	canon := append([]string(nil), names...)
	sort.Strings(canon)
	key := strings.Join(canon, "|")
	if reported[key] {
		return
	}
	reported[key] = true

	// Gather the witness: for each consecutive pair, the inferred edge's
	// hops (or the declared annotation when the edge is declaration-only).
	var (
		related    []Related
		anchor     token.Pos
		allKnown   = true
		inverted   bool
		shortNames []string
	)
	for i := range cycle {
		from, to := cycle[i], cycle[(i+1)%len(cycle)]
		shortNames = append(shortNames, shortLock(from))
		if violated[[2]lockKey{from, to}] {
			inverted = true
		}
		if e, ok := edges[[2]lockKey{from, to}]; ok {
			if anchor == token.NoPos && m.nonDepPos(e.anchor) {
				anchor = e.anchor
			}
			related = append(related, e.hops...)
		} else if d, ok := declared[[2]lockKey{from, to}]; ok {
			related = append(related, m.rel(d.pos, fmt.Sprintf("order %s < %s declared here", shortLock(from), shortLock(to))))
		} else {
			allKnown = false
		}
	}
	// Each inversion edge in the cycle was reported against its
	// declaration already; re-reporting the same witness as a cycle would
	// double-count one bug.
	if inverted || !allKnown || anchor == token.NoPos {
		return
	}
	if len(cycle) == 1 {
		pass.Report(anchor, related, "%s acquired while already held (recursive acquisition)", shortLock(cycle[0]))
		return
	}
	pass.Report(anchor, related, "lock-order cycle: %s → %s", strings.Join(shortNames, " → "), shortNames[0])
}

// rel converts a token.Pos hop into a Related entry.
func (m *program) rel(pos token.Pos, note string) Related {
	return Related{Pos: m.fset.Position(pos), Note: note}
}

// sortedLockKeys returns the map's keys in stable order.
func sortedLockKeys(t map[lockKey]acqChain) []lockKey {
	out := make([]lockKey, 0, len(t))
	for k := range t {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
