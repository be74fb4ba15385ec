package main

// The repeatability tool: -repeat SETSxRUNS runs every workload
// SETS x RUNS times on this one build, each run with its own seed, the
// sets interleaved (A1 B1 A2 B2 ...) so slow drift of the machine lands
// on all of them alike, and judges the sets against each other the way
// the benchmark driver judges two commits: per workload and end-to-end
// metric of its row, each set's quartile distance as a share of its
// median, and how much worse a later set's median is than the first's,
// both against the metric's bound.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"ptm/internal/cli"
)

type environment struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOAMD64    string `json:"goamd64"`
	SyncPolicy string `json:"sync_policy"`
	Filesystem string `json:"scratch_filesystem"`
}

type repeatRow struct {
	Workload string      `json:"workload"`
	Metric   string      `json:"metric"`
	Unit     string      `json:"unit"`
	Better   string      `json:"better"`
	Bound    float64     `json:"bound"`
	Medians  []float64   `json:"set_medians"`
	Spreads  []float64   `json:"set_iqr_over_median"`
	Gap      float64     `json:"worst_later_set_vs_first"`
	Pass     bool        `json:"pass"`
	Values   [][]float64 `json:"values"`
}

type repeatOutput struct {
	Environment environment `json:"environment"`
	RunSeconds  float64     `json:"run_seconds"`
	Sets        int         `json:"sets"`
	RunsPerSet  int         `json:"runs_per_set"`
	FirstSeed   uint64      `json:"first_seed"`
	Pass        bool        `json:"pass"`
	Rows        []repeatRow `json:"rows"`
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the benchmark driver uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k*(len(s)+1)) / 4 // 1-based rank
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(1), at(3)
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's direction; negative when b is better.
func worseBy(better string, a, b float64) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func runRepeat(base config, spec string, stdout, stderr io.Writer) error {
	var sets, runs int
	if n, err := fmt.Sscanf(spec, "%dx%d", &sets, &runs); n != 2 || err != nil || sets < 2 || runs < 2 {
		return fmt.Errorf("-repeat wants SETSxRUNS with both at least 2, e.g. 2x5; got %q", spec)
	}
	names := workloadNames
	if base.workload != "" {
		names = []string{base.workload}
	}
	progress := cli.NewPrinter(stderr)
	// values[workload][metric][set] → that set's runs
	values := map[string]map[string][][]float64{}
	for _, w := range names {
		values[w] = map[string][][]float64{}
		row := rowOf(w)
		for _, d := range row {
			values[w][d.Name] = make([][]float64, sets)
		}
		for i := 0; i < runs; i++ {
			for s := 0; s < sets; s++ {
				c := base
				c.workload, c.trace = w, false
				c.seed = base.seed + uint64(i*sets+s)
				rep, _, err := measure(c)
				if err != nil {
					return err
				}
				if rep.failed > 0 {
					return fmt.Errorf("%s seed %d: %d of %d checks: %w", w, c.seed, rep.failed, rep.attempted, errIncorrect)
				}
				for _, d := range row {
					values[w][d.Name][s] = append(values[w][d.Name][s], rep.values[d.Name])
				}
				progress.Printf("%s set %d run %d seed %d done\n", w, s+1, i+1, c.seed)
			}
		}
	}

	out := repeatOutput{Environment: stampEnvironment(base.dir), RunSeconds: base.seconds,
		Sets: sets, RunsPerSet: runs, FirstSeed: base.seed, Pass: true}
	for _, w := range names {
		for _, d := range rowOf(w) {
			row := repeatRow{Workload: w, Metric: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound,
				Values: values[w][d.Name], Pass: true}
			for s, vs := range row.Values {
				med := median(vs)
				q1, q3 := quartiles(vs)
				row.Medians = append(row.Medians, med)
				row.Spreads = append(row.Spreads, (q3-q1)/med)
				if (q3-q1)/med > row.Bound {
					row.Pass = false
				}
				if s > 0 {
					row.Gap = max(row.Gap, worseBy(d.Better, row.Medians[0], med))
				}
			}
			if row.Gap > row.Bound {
				row.Pass = false
			}
			out.Pass = out.Pass && row.Pass
			verdict := "PASS"
			if !row.Pass {
				verdict = "FAIL"
			}
			progress.Printf("%-15s %-22s medians %v  iqr/median %.3f  later-vs-first %+.3f  bound %.2f  %s\n",
				w, d.Name, row.Medians, row.Spreads, row.Gap, row.Bound, verdict)
			out.Rows = append(out.Rows, row)
		}
	}
	if err := progress.Err(); err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	if !out.Pass {
		return fmt.Errorf("two sets of runs of the same build disagree by more than a bound; see the FAIL rows")
	}
	return nil
}

// stampEnvironment records what a reader needs to compare this
// baseline with another machine's.
func stampEnvironment(scratch string) environment {
	env := environment{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), SyncPolicy: "always",
		CPU: "unknown", GOAMD64: "unknown", Filesystem: "unknown"}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "GOAMD64" {
				env.GOAMD64 = s.Value
			}
		}
	}
	for _, line := range fileLines("/proc/cpuinfo") {
		if name, value, found := strings.Cut(line, ":"); found && strings.TrimSpace(name) == "model name" {
			env.CPU = strings.TrimSpace(value)
			break
		}
	}
	// The scratch directory's filesystem: the longest mount point that
	// prefixes its absolute path.
	abs, err := filepath.Abs(scratch)
	if err != nil {
		return env
	}
	best := ""
	for _, line := range fileLines("/proc/mounts") {
		f := strings.Fields(line)
		if len(f) >= 3 && strings.HasPrefix(abs, f[1]) && len(f[1]) > len(best) {
			best, env.Filesystem = f[1], f[2]
		}
	}
	return env
}

// fileLines returns a file's lines, or none when it cannot be read: the
// stamp then says "unknown".
func fileLines(path string) []string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	return strings.Split(string(raw), "\n")
}
