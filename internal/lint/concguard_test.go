package lint

import (
	"strings"
	"testing"
)

// loadConcguardFixture loads one concguard golden directory and runs a
// single analyzer over it.
func loadConcguardFixture(t *testing.T, dir string, a *Analyzer) []Diagnostic {
	t.Helper()
	loader := &Loader{}
	pkgs, err := loader.Load("./testdata/src/concguard/" + dir)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return Run(loader.Fset(), pkgs, []*Analyzer{a})
}

// TestLockOrderWitnessPath pins down the shape of a lockorder inversion's
// witness: the declared annotation, the call hop that carries the outer
// lock into the callee, and the inner acquisition, in flow order.
func TestLockOrderWitnessPath(t *testing.T) {
	diags := loadConcguardFixture(t, "lockorder", LockOrder())
	var inv *Diagnostic
	for i := range diags {
		if strings.Contains(diags[i].Message, "inverting declared order") {
			inv = &diags[i]
		}
	}
	if inv == nil {
		t.Fatalf("no inversion diagnostic in %v", diags)
	}
	if len(inv.Related) < 3 {
		t.Fatalf("witness has %d hops, want at least 3 (declaration, call, acquisition): %v",
			len(inv.Related), inv.Related)
	}
	if !strings.Contains(inv.Related[0].Note, "declared here") {
		t.Errorf("first hop %q does not cite the //ptm:lockorder declaration", inv.Related[0].Note)
	}
	var sawCall, sawAcquire bool
	for _, r := range inv.Related {
		if r.Pos.Line == 0 || r.Pos.Filename == "" {
			t.Errorf("hop %q has no position", r.Note)
		}
		if strings.Contains(r.Note, "calls") && strings.Contains(r.Note, "while holding") {
			sawCall = true
		}
		if strings.Contains(r.Note, "acquires") {
			sawAcquire = true
		}
	}
	if !sawCall {
		t.Errorf("witness never crosses the call that carries the held lock: %v", inv.Related)
	}
	if !sawAcquire {
		t.Errorf("witness never reaches the inner acquisition: %v", inv.Related)
	}
}

// TestLockOrderCycleWitness asserts the undeclared cycle is reported once
// with an edge witness for every hop of the cycle.
func TestLockOrderCycleWitness(t *testing.T) {
	diags := loadConcguardFixture(t, "lockorder", LockOrder())
	var cycles []Diagnostic
	for _, d := range diags {
		if strings.Contains(d.Message, "lock-order cycle") {
			cycles = append(cycles, d)
		}
	}
	if len(cycles) != 1 {
		t.Fatalf("got %d cycle diagnostics, want exactly 1: %v", len(cycles), cycles)
	}
	if len(cycles[0].Related) < 2 {
		t.Errorf("cycle witness has %d hops, want one per edge: %v",
			len(cycles[0].Related), cycles[0].Related)
	}
}

// TestGuardedByCoverage asserts the interprocedural half of guardedby: a
// helper whose callers all hold the lock is clean, so the only findings
// in the fixture are the two deliberate violations.
func TestGuardedByCoverage(t *testing.T) {
	diags := loadConcguardFixture(t, "guardedby", GuardedBy())
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (setLocked must be covered by its locked caller): %v",
			len(diags), diags)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "setLocked") {
			t.Errorf("covered helper reported: %s", d)
		}
	}
}

// TestRCUReloadRebinds asserts that re-Loading into the same variable
// after a blocking point ends the earlier snapshot's retention window.
func TestRCUReloadRebinds(t *testing.T) {
	diags := loadConcguardFixture(t, "rcu", RCU())
	for _, d := range diags {
		if d.Pos.Line == 0 {
			t.Errorf("diagnostic without position: %s", d)
		}
		if strings.Contains(d.Message, "retained") && d.Related[0].Note == "" {
			t.Errorf("retention diagnostic missing load-site note: %s", d)
		}
	}
	// Exactly one Store violation and one retention: GoodRead and
	// GoodReload must stay silent.
	var stores, retains int
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "Store on RCU field"):
			stores++
		case strings.Contains(d.Message, "retained across a blocking"):
			retains++
		}
	}
	if stores != 1 || retains != 1 {
		t.Errorf("got %d store / %d retention findings, want 1/1: %v", stores, retains, diags)
	}
}

// TestAnnotationErrorsOnce asserts that a malformed annotation is
// reported once, under the rule owning the fact, and that rules owning
// no malformed fact stay silent.
func TestAnnotationErrorsOnce(t *testing.T) {
	want := map[string][]string{
		"lockorder": {`pair "mu-other" is not of the form a<b`},
		"guardedby": {
			`names "nosuch", which is not a field of pair`,
			`guard pair.n is not a sync.Mutex or sync.RWMutex`,
		},
		"atomicmix": nil,
		"rcu":       nil,
		"noalloc":   nil,
	}
	for _, a := range []*Analyzer{LockOrder(), GuardedBy(), AtomicMix(), RCU(), Noalloc()} {
		diags := loadConcguardFixture(t, "badannot", a)
		if len(diags) != len(want[a.Name]) {
			t.Errorf("%s: got %d findings, want %d: %v", a.Name, len(diags), len(want[a.Name]), diags)
			continue
		}
		for i, d := range diags {
			if d.Rule != a.Name || !strings.Contains(d.Message, want[a.Name][i]) {
				t.Errorf("%s: finding %d = %s, want %q", a.Name, i, d, want[a.Name][i])
			}
		}
	}
}
