// Command benchpair compares the working tree with a commit on the
// repository's benchmark, bench/ptmload, the way a performance claim is
// judged: paired runs, alternating which build goes first.
//
//	go run ./cmd/benchpair <rev> [workload] [pairs] [seed]
//
// It extracts <rev> with git archive into a temporary directory, builds
// ./bench/ptmload there and in the working tree, and runs pairs (default
// 10) of each workload (default: every workload of BENCHMARK.json) on
// ptmload's input seed (default 1), each run at BENCHMARK.json's run_seconds with its scratch files in the
// temporary directory, which is removed on every exit. The runs' WAL and
// segment writes therefore land on the system temporary directory's
// filesystem (os.TempDir); where that is a tmpfs, fsync costs nothing and
// the write path is not measured. A run that gets an answer wrong stops
// the tool.
//
// For each workload it prints, per metric: both builds' median and
// quartiles and the median paired difference (change minus parent). The
// end-to-end metrics BENCHMARK.json gates also get the pair tally
// (wins/losses/ties for the change), the one-sided sign-test p and a
// verdict: gain, regression, unresolved or no change (see judge). The
// other metrics of a workload's row have no direction or bound there and
// get no verdict. The output starts with the machine, the toolchain and
// both commits.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"

	"ptm/internal/cli"
)

const defaultPairs = 10

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

// benchmark is the part of BENCHMARK.json the tool reads.
type benchmark struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []gate `json:"end_to_end"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	if len(args) < 1 || len(args) > 4 {
		return errors.New("usage: benchpair <rev> [workload] [pairs] [seed]")
	}
	pairs := defaultPairs
	if len(args) >= 3 {
		if pairs, err = strconv.Atoi(args[2]); err != nil || pairs < 1 {
			return fmt.Errorf("pairs must be a positive integer, got %q", args[2])
		}
	}
	seed := "1"
	if len(args) == 4 {
		if _, err := strconv.ParseUint(args[3], 10, 64); err != nil {
			return fmt.Errorf("seed must be an unsigned integer, got %q", args[3])
		}
		seed = args[3]
	}
	root, err := command(ctx, "", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bm benchmark
	if err := json.Unmarshal(raw, &bm); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var workloads []string
	for _, w := range bm.Workloads {
		if len(args) < 2 || args[1] == w.Name {
			workloads = append(workloads, w.Name)
		}
	}
	if len(workloads) == 0 {
		return fmt.Errorf("unknown workload %q", args[1])
	}
	commits, err := command(ctx, root, "git", "rev-parse", args[0]+"^{commit}", "HEAD")
	if err != nil {
		return err
	}
	dirty, err := command(ctx, root, "git", "status", "--porcelain")
	if err != nil {
		return err
	}
	goEnv, err := command(ctx, root, "go", "env", "GOVERSION", "GOAMD64")
	if err != nil {
		return err
	}
	parentRev, head, _ := strings.Cut(commits, "\n")
	goVersion, goamd64, _ := strings.Cut(goEnv, "\n")

	tmp, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return err
	}
	defer func() {
		if rerr := os.RemoveAll(tmp); err == nil {
			err = rerr
		}
	}()
	bins := [2]string{filepath.Join(tmp, "ptmload-parent"), filepath.Join(tmp, "ptmload-change")}
	archive, src := filepath.Join(tmp, "src.tar"), filepath.Join(tmp, "src")
	for _, c := range [][]string{
		{root, "git", "archive", "--prefix=src/", "-o", archive, parentRev},
		{tmp, "tar", "-xf", archive},
		{src, "go", "build", "-o", bins[0], "./bench/ptmload"},
		{root, "go", "build", "-o", bins[1], "./bench/ptmload"},
	} {
		if _, err := command(ctx, c[0], c[1], c[2:]...); err != nil {
			return err
		}
	}

	out := cli.NewPrinter(stdout)
	out.Printf("benchpair: parent %s (%s) vs change %s", parentRev, args[0], head)
	if dirty != "" {
		out.Printf(" plus uncommitted changes")
	}
	out.Printf("\ncpu %s, nproc %d, %s, GOAMD64=%s; %d pairs of %gs runs per workload, seed %s\n",
		cpuModel(), runtime.NumCPU(), goVersion, goamd64, pairs, bm.RunSeconds, seed)
	if err := out.Err(); err != nil {
		return err
	}
	progress := cli.NewPrinter(stderr)
	seconds := strconv.FormatFloat(bm.RunSeconds, 'g', -1, 64)
	for _, w := range workloads {
		// values[side][metric] holds one value per pair, in pair order.
		values := [2]map[string][]float64{{}, {}}
		var order []string // row metrics in the order the first run printed them
		for _, r := range schedule(pairs) {
			output, err := command(ctx, "", bins[r.side], "-workload", w, "-seed", seed, "-seconds", seconds, "-dir", filepath.Join(tmp, "runs"))
			if err != nil {
				return fmt.Errorf("%s, pair %d, %s build: %w", w, r.pair+1, sideNames[r.side], err)
			}
			names, metrics, err := parseRun(output)
			if err != nil {
				return fmt.Errorf("%s, pair %d, %s build: %w", w, r.pair+1, sideNames[r.side], err)
			}
			if order == nil {
				order = names
			}
			for m, v := range metrics {
				values[r.side][m] = append(values[r.side][m], v)
			}
			progress.Printf("%s pair %d/%d %s done\n", w, r.pair+1, pairs, sideNames[r.side])
		}
		if err := report(stdout, w, bm.EndToEnd, order, values, pairs); err != nil {
			return err
		}
	}
	return progress.Err()
}

var sideNames = [2]string{"parent", "change"}

// pairRun is one run of a pair study: pair index and side (0 parent,
// 1 change).
type pairRun struct{ pair, side int }

// schedule is the order the runs of one workload execute in: pair i runs
// the parent first when i is even and the change first when it is odd,
// so a slow drift of the machine lands on both builds alike.
func schedule(pairs int) []pairRun {
	runs := make([]pairRun, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		first := i % 2
		runs = append(runs, pairRun{i, first}, pairRun{i, 1 - first})
	}
	return runs
}

// parseRun reads ptmload's output: "metric <name> <value> <unit>" lines,
// then the JSON result line last. It returns the row metrics' names in
// output order and every metric's value, the result line's taking
// precedence. A run that failed a check is an error.
func parseRun(out string) (names []string, values map[string]float64, err error) {
	values = map[string]float64{}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != "metric" {
			continue
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("metric line %q: %w", line, err)
		}
		names = append(names, f[1])
		values[f[1]] = v
	}
	last := lines[len(lines)-1]
	var result struct {
		Correct bool  `json:"correct"`
		Failed  int64 `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &result); err != nil {
		return nil, nil, fmt.Errorf("no result line at the end of the output: %w", err)
	}
	if !result.Correct || result.Failed > 0 {
		return nil, nil, fmt.Errorf("the run failed %d checks: %s", result.Failed, last)
	}
	for name, m := range result.Metrics {
		values[name] = m.Value
	}
	return names, values, nil
}

// report prints one workload's table: the gated metrics first, then the
// row metrics both builds printed in every run.
func report(stdout io.Writer, workload string, gates []gate, order []string, values [2]map[string][]float64, pairs int) error {
	var rows []row
	gated := map[string]bool{}
	for i := range gates {
		g := &gates[i]
		parent, change := values[0][g.Name], values[1][g.Name]
		if len(parent) != pairs || len(change) != pairs {
			return fmt.Errorf("%s: %s missing from some runs", workload, g.Name)
		}
		rows = append(rows, compare(g.Name, parent, change, g))
		gated[g.Name] = true
	}
	for _, m := range order {
		if parent, change := values[0][m], values[1][m]; len(parent) == pairs && len(change) == pairs && !gated[m] {
			rows = append(rows, compare(m, parent, change, nil))
		}
	}

	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	p := cli.NewPrinter(tw)
	p.Printf("\nworkload %s\n", workload)
	p.Printf("metric\tparent median\t[q1, q3]\tchange median\t[q1, q3]\tmedian diff\tW/L/T\tsign p\tverdict\t\n")
	for _, r := range rows {
		p.Printf("%s\t%s\t[%s, %s]\t%s\t[%s, %s]\t%s\t", r.Metric, num(r.Parent.Med), num(r.Parent.Q1), num(r.Parent.Q3),
			num(r.Change.Med), num(r.Change.Q1), num(r.Change.Q3), num(r.DiffMed))
		if r.Gated {
			p.Printf("%d/%d/%d\t%.4f\t%s\t\n", r.Wins, r.Losses, r.Ties, r.P, r.Verdict)
		} else {
			p.Printf("-\t-\t-\t\n")
		}
	}
	if err := p.Err(); err != nil {
		return err
	}
	return tw.Flush()
}

// num prints a value with four significant digits, without an exponent
// for the large rates.
func num(v float64) string {
	if math.Abs(v) >= 1000 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// command runs name in dir (the current directory when dir is empty) and
// returns its standard output, trimmed; a failure carries its standard
// error.
func command(ctx context.Context, dir, name string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %w\n%s", name, strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, value, found := strings.Cut(line, ":"); found && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}
