package lint

// guardedby enforces //ptm:guardedby mu field annotations
// interprocedurally: every read or write of an annotated field must
// happen while the guard is held — locally on some path, or on every
// path into the enclosing function (the guard is held at each call
// site, transitively), or inside an //ptm:exclusive region where the
// data is not yet (or no longer) shared. Writes through an RWMutex
// guard require the write lock; reads accept either.

import (
	"fmt"
)

// GuardedBy returns the guardedby analyzer.
func GuardedBy() *Analyzer {
	return &Analyzer{
		Name:       "guardedby",
		Doc:        "//ptm:guardedby fields are only accessed with the guard held (interprocedural)",
		RunProgram: runGuardedBy,
	}
}

type guardNeed struct {
	guard lockKey
	need  lockMode
}

func runGuardedBy(pass *ProgramPass) {
	m := pass.prog
	for _, f := range m.sorted {
		for _, a := range f.accesses {
			fact, ok := m.guards[a.field]
			if !ok || a.atomicArg {
				continue
			}
			need := modeR
			if (a.write || a.addrOf) && fact.guardRW {
				need = modeW
			}
			if a.mayHeld.holds(fact.guard, need) || m.exclusive[f.key] ||
				m.covered(fact.guard, need)[f.key] || !m.nonDepPos(a.pos) {
				continue
			}
			verb := "read"
			switch {
			case a.addrOf:
				verb = "address-taken"
			case a.write:
				verb = "written"
			}
			related := []Related{m.rel(fact.pos, fmt.Sprintf("%s declared //ptm:guardedby %s here", fact.name, shortLock(fact.guard)))}
			if ref, ok := m.uncoveredSite(f.key, fact.guard, need); ok {
				related = append(related, m.rel(ref.site.pos,
					fmt.Sprintf("%s reached from %s without %s held", funcLabel(f.key), funcLabel(ref.caller), shortLock(fact.guard))))
			}
			what := shortLock(fact.guard)
			if fact.guardRW && need == modeW {
				what += " (write lock)"
			}
			pass.Report(a.pos, related, "%s.%s %s without holding %s", shortKey(fact.owner), fact.name, verb, what)
		}
	}
}
