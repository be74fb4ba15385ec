// Command ptmload is the repository's pipeline benchmark: one command
// that builds a workload's inputs from a seed, runs it in-process against
// the real layers (over TCP loopback where the deployment has a wire),
// checks every answer against its own reference, and prints every metric
// by name with its unit.
//
//	go run ./bench/ptmload -workload upload-durable -seed 1
//	go run ./bench/ptmload -workload query-mix -seed 1 -trace 1
//	go run ./bench/ptmload -repeat 2x10 > bench/BASELINE.json
//
// Workloads, metrics and how they interact are described in
// bench/README.md; BENCHMARK.json at the repository root is the
// machine-readable contract (TestBenchmarkJSONMatchesTables keeps the two
// in step).
//
// Load shape: closed loop, at most two client goroutines/connections at
// any time, one process, GOMAXPROCS untouched. Every workload's primary
// loop executes a fixed, seed-derived operation list whose length scales
// with -seconds (so counts repeat exactly and the store is the same size
// on any two commits); a secondary loop, where there is one, runs until
// the primary finishes. End-to-end metrics are measured with tracing off;
// -trace 1 runs half the list on an undecorated environment and on one
// with the timing decorators on, a tenth at a time in turns, and prints
// the per-layer metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"

	"ptm/internal/cli"
)

// referenceSeconds is the run length the per-second operation rates in
// each workload file were measured at, and BENCHMARK.json's run_seconds.
const referenceSeconds = 20

type config struct {
	workload string
	seed     uint64
	seconds  float64 // the primary loop is sized to last about this long at today's speed
	scale    float64 // multiplies the set-up volumes; 1 is the benchmark, less is for smoke tests
	trace    bool
	dir      string // scratch root: WAL, segments and span files live under it

	// corruptReference makes every reference answer wrong; tests use it
	// to prove a run with a bad answer exits non-zero.
	corruptReference bool
}

// ops turns a per-second operation rate into this run's fixed operation
// count. A traced run executes half the list, on each of two environments
// (decorators off and on), so it costs about what an end-to-end run does.
func (c *config) ops(perSecond float64) int {
	n := perSecond * c.seconds
	if c.trace {
		n /= 2
	}
	return max(int(n), 1)
}

// sized scales a set-up volume, keeping at least floor.
func (c *config) sized(n, floor int) int { return max(int(float64(n)*c.scale), floor) }

// workloads maps a name to its runner. A runner fills rep with the
// metrics of its row (or its layers, when c.trace) and the correctness
// tally.
var workloads = map[string]func(c *config, rep *report) error{
	wEdgeStorm:     runEdgeStorm,
	wUploadDurable: runUploadDurable,
	wQueryMix:      runQueryMix,
	wRingMixed:     runRingMixed,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ptmload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "one of edge-storm, upload-durable, query-mix, ring-mixed")
		seed     = fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", referenceSeconds, "target length of the measure phase; scales the fixed operation counts")
		trace    = fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
		scale    = fs.Float64("scale", 1, "multiplier on set-up volumes (smoke tests use < 1)")
		dir      = fs.String("dir", "bench/out", "scratch directory for WALs, segments and span files")
		repeat   = fs.String("repeat", "", "SETSxRUNS, e.g. 2x5: run the repeatability tool (on every workload, or just -workload)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	complain := cli.NewPrinter(stderr)
	if *seconds <= 0 || *scale <= 0 || (*trace != 0 && *trace != 1) {
		complain.Println("ptmload: -seconds and -scale must be positive, -trace 0 or 1")
		return 2
	}
	base := config{workload: *workload, seed: *seed, seconds: *seconds, scale: *scale, trace: *trace == 1, dir: *dir}
	if *repeat != "" {
		if err := runRepeat(base, *repeat, stdout, stderr); err != nil {
			complain.Println("ptmload:", err)
			return 1
		}
		return 0
	}
	if err := runOne(base, stdout); err != nil {
		complain.Println("ptmload:", err)
		return 1
	}
	return 0
}

var errIncorrect = errors.New("answers did not match the reference")

// runOne runs one workload and prints the human-readable block followed
// by the result line. It returns errIncorrect (after printing) when any
// check failed.
func runOne(c config, stdout io.Writer) error {
	rep, line, err := measure(c)
	if err != nil {
		return err
	}
	pr := cli.NewPrinter(stdout)
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	rep.print(pr, defs)
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	pr.Printf("%s\n", enc)
	if err := pr.Err(); err != nil {
		return err
	}
	if rep.failed > 0 {
		return fmt.Errorf("%s: %d of %d checks: %w", c.workload, rep.failed, rep.attempted, errIncorrect)
	}
	return nil
}

// measure runs the workload in a scratch directory of its own and
// assembles the result line.
func measure(c config) (rep *report, line resultLine, err error) {
	runner, ok := workloads[c.workload]
	if !ok {
		return nil, line, fmt.Errorf("unknown workload %q (want one of %v)", c.workload, workloadNames)
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, line, err
	}
	scratch, err := os.MkdirTemp(c.dir, c.workload+"-")
	if err != nil {
		return nil, line, err
	}
	defer func() {
		if rerr := os.RemoveAll(scratch); err == nil {
			err = rerr
		}
	}()
	traceDir := c.dir
	c.dir = scratch

	rep = newReport(c.workload, c.seed)
	rep.traceDir = traceDir
	// Let the kernel finish what earlier runs left behind (their deleted
	// gigabytes are still being journalled and discarded) before any clock
	// starts: one run's cleanup must not be the next run's first seconds.
	syscall.Sync()
	if err := runner(&c, rep); err != nil {
		return nil, line, fmt.Errorf("%s: %w", c.workload, err)
	}
	if rep.attempted == 0 {
		return nil, line, fmt.Errorf("%s verified nothing", c.workload)
	}
	line, err = rep.resultLine(c.trace)
	return rep, line, err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's output, the form the benchmark
// driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine assembles the driver's line. The driver wants every metric
// of BENCHMARK.json in every workload's line, so an end-to-end run carries
// the two end-to-end metrics all four workloads have (driverEndToEnd); the
// rest of the workload's row is in the human-readable block above the
// line. A traced run carries every per-layer metric, 0 for a layer the
// workload does not exercise.
func (r *report) resultLine(traced bool) (resultLine, error) {
	line := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if traced {
		for _, d := range perLayer {
			line.Metrics[d.Name] = metricValue{r.values[d.Name], d.Unit}
		}
		return line, nil
	}
	for _, d := range endToEnd {
		if v := r.values[d.Name]; d.appliesTo(r.workload) && v <= 0 {
			return line, fmt.Errorf("%s did not measure %s", r.workload, d.Name)
		}
	}
	for _, d := range driverEndToEnd {
		line.Metrics[d.Name] = metricValue{r.values[d.source(r.workload)], d.Unit}
	}
	return line, nil
}

// timedSetup builds a workload's environment, ends with a collection so
// the measure phase starts from a clean heap, and returns the build time
// in seconds.
func timedSetup[E any](build func() (E, error)) (env E, setupS float64, err error) {
	start := time.Now()
	env, err = build()
	if err != nil {
		return env, 0, err
	}
	runtime.GC()
	return env, time.Since(start).Seconds(), nil
}
