package lint

// rcu enforces the read-copy-update publication contract declared with
// //ptm:rcu mu on atomic.Pointer[T] fields:
//
//   - writer side: Store/Swap/CompareAndSwap on the field may only
//     happen while the declared rotation lock is held (locally, or on
//     every path into the function, or in an //ptm:exclusive region) —
//     otherwise two rotations can interleave and strand in-flight
//     updates on an unpublished snapshot;
//   - reader side: a pointer obtained from Load must not be used again
//     after a blocking operation (channel op, select, sleep, Gosched,
//     Cond/WaitGroup Wait, or an //ptm:blocking callee) — after
//     blocking, a rotation may have retired the snapshot, so the reader
//     must re-Load. The writer itself is exempt: holding the rotation
//     lock, it retires the old state and may legitimately drain it
//     across its grace-period spin.

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
)

// RCU returns the rcu analyzer.
func RCU() *Analyzer {
	return &Analyzer{
		Name:       "rcu",
		Doc:        "//ptm:rcu pointers are only stored under the rotation lock and never retained across blocking calls",
		RunProgram: runRCU,
	}
}

func runRCU(pass *ProgramPass) {
	m := pass.prog
	for _, f := range m.sorted {
		var blocks []int
		for _, b := range f.blockPts {
			blocks = append(blocks, int(b))
		}
		sort.Ints(blocks)

		// binds[obj] holds the binding positions of every Load/Swap bound
		// to obj: a use past a later re-binding holds the fresh snapshot
		// and is not retention of the earlier one.
		binds := make(map[types.Object][]int)
		for _, op := range f.rcuOps {
			if op.target != nil {
				binds[op.target] = append(binds[op.target], int(op.bindPos))
			}
		}
		for _, v := range binds {
			sort.Ints(v)
		}

		for _, op := range f.rcuOps {
			fact := m.rcuFields[op.field]
			writerHeld := op.mustHeld.holds(fact.guard, modeW) || m.exclusive[f.key] || m.covered(fact.guard, modeW)[f.key]

			switch op.op {
			case "Store", "Swap", "CompareAndSwap":
				if !writerHeld && m.nonDepPos(op.pos) {
					pass.Report(op.pos, []Related{
						m.rel(fact.pos, fmt.Sprintf("%s declared //ptm:rcu %s here", fact.name, shortLock(fact.guard))),
					}, "%s on RCU field %s.%s without holding rotation lock %s",
						op.op, shortKey(fact.owner), fact.name, shortLock(fact.guard))
				}
			}

			// Retention: a pointer bound from Load (or Swap) used after a
			// later blocking point. The writer holds the rotation lock and
			// is exempt — it owns the retired snapshot.
			if op.target == nil || writerHeld {
				continue
			}
			idx := sort.SearchInts(blocks, int(op.pos)+1)
			if idx == len(blocks) {
				continue
			}
			block := blocks[idx]
			// Earliest use of the loaded pointer after the blocking point
			// that is still governed by this binding (no re-Load of the
			// same variable in between).
			superseded := func(usePos int) bool {
				for _, b := range binds[op.target] {
					if b > int(op.bindPos) && b <= usePos {
						return true
					}
				}
				return false
			}
			var first token.Pos
			for _, use := range f.usesAfter {
				if use.obj != op.target || int(use.pos) <= block || superseded(int(use.pos)) {
					continue
				}
				if first == token.NoPos || use.pos < first {
					first = use.pos
				}
			}
			if first == token.NoPos || !m.nonDepPos(first) {
				continue
			}
			pass.Report(first, []Related{
				m.rel(op.pos, fmt.Sprintf("%s.%s loaded here", shortKey(fact.owner), fact.name)),
				m.rel(token.Pos(block), "blocking operation here; the snapshot may be retired after this point"),
			}, "RCU pointer from %s.%s retained across a blocking operation; re-Load after blocking",
				shortKey(fact.owner), fact.name)
		}
	}
}
