package lint

import (
	"fmt"
	"regexp"
	"testing"
)

// The golden files under testdata/src annotate each expected finding with
// a trailing comment of the form
//
//	// want `regexp`
//
// on the line the diagnostic must land on. The test fails on any
// unexpected diagnostic and on any unmet expectation, so the fixtures
// double as false-positive regression tests: every unannotated line is an
// assertion that the analyzer stays silent there.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

type wantExpect struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func (w *wantExpect) String() string {
	return fmt.Sprintf("%s:%d: `%s`", w.file, w.line, w.re)
}

func collectWants(t *testing.T, loader *Loader, pkgs []*Package) []*wantExpect {
	t.Helper()
	var wants []*wantExpect
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("bad want pattern %q: %v", m[1], err)
						}
						pos := loader.Fset().Position(c.Pos())
						wants = append(wants, &wantExpect{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	return wants
}

func TestGolden(t *testing.T) {
	cases := []struct {
		name     string
		dir      string
		analyzer *Analyzer
		// wantNone ignores the fixture's annotations and requires zero
		// diagnostics (used to re-run a fixture under a configuration
		// where the rule must not apply at all).
		wantNone bool
		// audit runs the suppression audit too, so stale-directive
		// findings join the analyzer's own.
		audit bool
	}{
		{name: "cryptorand", dir: "cryptorandtest",
			analyzer: Cryptorand([]string{"testdata/src/cryptorandtest"})},
		{name: "cryptorand-noncritical", dir: "cryptorandtest",
			analyzer: Cryptorand(nil), wantNone: true},
		{name: "pow2size", dir: "pow2sizetest", analyzer: Pow2Size()},
		{name: "errdrop", dir: "errdroptest", analyzer: ErrDrop()},
		{name: "goroutinehygiene", dir: "goroutinetest", analyzer: GoroutineHygiene()},
		{name: "privflow-direct", dir: "privflow/direct", analyzer: Privflow()},
		{name: "privflow-interproc", dir: "privflow/interproc", analyzer: Privflow()},
		{name: "privflow-closure", dir: "privflow/closure", analyzer: Privflow()},
		{name: "privflow-builtin", dir: "privflow/builtin", analyzer: Privflow()},
		{name: "privflow-atomic", dir: "privflow/atomic", analyzer: Privflow()},
		{name: "privflow-wal", dir: "privflow/wal", analyzer: Privflow()},
		{name: "privflow-sanitized", dir: "privflow/sanitized",
			analyzer: Privflow(), wantNone: true},
		{name: "stale-directive", dir: "staletest", analyzer: ErrDrop(), audit: true},
		{name: "concguard-lockorder", dir: "concguard/lockorder", analyzer: LockOrder()},
		{name: "concguard-guardedby", dir: "concguard/guardedby", analyzer: GuardedBy()},
		{name: "lockedfields", dir: "concguard/lockedfields", analyzer: GuardedBy()},
		{name: "concguard-atomicmix", dir: "concguard/atomicmix", analyzer: AtomicMix()},
		{name: "concguard-rcu", dir: "concguard/rcu", analyzer: RCU()},
		{name: "stale-directive-concguard", dir: "staleconctest",
			analyzer: GuardedBy(), audit: true},
		{name: "perfguard-noalloc", dir: "perfguard/noalloc", analyzer: Noalloc()},
		{name: "perfguard-inline", dir: "perfguard/inline", analyzer: Inline()},
		{name: "perfguard-bce", dir: "perfguard/bce", analyzer: BCE()},
		{name: "perfguard-clean-noalloc", dir: "perfguard/clean",
			analyzer: Noalloc(), wantNone: true},
		{name: "perfguard-clean-inline", dir: "perfguard/clean",
			analyzer: Inline(), wantNone: true},
		{name: "perfguard-clean-bce", dir: "perfguard/clean",
			analyzer: BCE(), wantNone: true},
		{name: "unknown-directive", dir: "badfacttest", analyzer: ErrDrop(), audit: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loader := &Loader{}
			pkgs, err := loader.Load("./testdata/src/" + tc.dir)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			if n := len(nonDep(pkgs)); n != 1 {
				t.Fatalf("fixture loaded %d target packages, want 1", n)
			}
			run := Run
			if tc.audit {
				run = RunAudited
			}
			diags := run(loader.Fset(), pkgs, []*Analyzer{tc.analyzer})
			if tc.wantNone {
				for _, d := range diags {
					t.Errorf("unexpected diagnostic: %s", d)
				}
				return
			}
			wants := collectWants(t, loader, pkgs)
			if len(wants) == 0 {
				t.Fatal("fixture has no want annotations")
			}
			for _, d := range diags {
				if d.Rule != tc.analyzer.Name &&
					!(tc.audit && (d.Rule == StaleDirective || d.Rule == UnknownDirective)) {
					t.Errorf("diagnostic %s carries rule %q, want %q", d, d.Rule, tc.analyzer.Name)
				}
				matched := false
				for _, w := range wants {
					if w.hit || w.file != d.Pos.Filename || w.line != d.Pos.Line {
						continue
					}
					if w.re.MatchString(d.Message) {
						w.hit = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("missing diagnostic: want %s", w)
				}
			}
		})
	}
}

// nonDep filters out module dependency packages, which the loader now
// includes for cross-package fact export.
func nonDep(pkgs []*Package) []*Package {
	var out []*Package
	for _, p := range pkgs {
		if !p.Dep {
			out = append(out, p)
		}
	}
	return out
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(All()) {
		t.Fatalf("ByName(\"\") returned %d analyzers, want %d", len(all), len(All()))
	}
	subset, err := ByName("errdrop, pow2size")
	if err != nil {
		t.Fatal(err)
	}
	if len(subset) != 2 || subset[0].Name != "errdrop" || subset[1].Name != "pow2size" {
		t.Fatalf("ByName subset = %v", subset)
	}
	if _, err := ByName("nosuchrule"); err == nil {
		t.Fatal("ByName accepted an unknown rule")
	}
}

func TestAnalyzerNamesDistinct(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v missing name or doc", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
