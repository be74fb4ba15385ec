package lint

// atomicmix enforces the single-discipline rule for atomically accessed
// fields: a field that is touched through sync/atomic — a plain word
// address-taken into atomic.OrUint64/LoadUint64 (the bitmap fast path),
// or a field of a sync/atomic value type — must never also be read or
// written plainly, except inside //ptm:exclusive regions (construction
// before publication, rotation after a grace period, quiescent
// consumers). Mixed access is how the lock-free ingest plane loses
// updates: a plain read can miss a concurrent atomic OR, and a plain
// write can clobber one.
//
// Slice-header-only uses (len, cap, key-only range) are exempt: they do
// not touch the shared words. Taking a field's address for an atomic
// call is the sanctioned access; taking the address of an atomic-typed
// field is also fine (a *atomic.Uint64 is still used atomically).

import (
	"fmt"
)

// AtomicMix returns the atomicmix analyzer.
func AtomicMix() *Analyzer {
	return &Analyzer{
		Name:       "atomicmix",
		Doc:        "fields accessed via sync/atomic are never also accessed plainly outside //ptm:exclusive regions",
		RunProgram: runAtomicMix,
	}
}

func runAtomicMix(pass *ProgramPass) {
	m := pass.prog
	for _, f := range m.sorted {
		for _, a := range f.accesses {
			if a.atomicArg || a.rangeKeyOnly {
				continue
			}
			atomicPos, inferred := m.atomicFields[a.field]
			typed := m.atomicTyped[a.field]
			if !inferred && !typed {
				continue
			}
			// A pointer to an atomic-typed field stays atomic; a pointer
			// to a plain word that is elsewhere used atomically does not.
			if typed && !inferred && a.addrOf {
				continue
			}
			if m.exclusive[f.key] || !m.nonDepPos(a.pos) {
				continue
			}
			verb := "read"
			switch {
			case a.addrOf:
				verb = "address-taken"
			case a.write:
				verb = "written"
			}
			var related []Related
			msg := fmt.Sprintf("atomic-typed field %s %s as a plain value (use its atomic methods)", shortKey(a.field), verb)
			if inferred {
				related = append(related, m.rel(atomicPos, fmt.Sprintf("%s accessed atomically here", shortKey(a.field))))
				msg = fmt.Sprintf("%s is accessed via sync/atomic but %s plainly here; mark the enclosing function //ptm:exclusive or use atomics", shortKey(a.field), verb)
			}
			pass.Report(a.pos, related, "%s", msg)
		}
	}
}
