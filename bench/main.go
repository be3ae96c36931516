// Command bench is linkpad's end-to-end benchmark. A workload is a fixed
// list of ops; each op is one core.System.Build(spec) followed by
// Scenario.Run, and the ops run in sequence in one process (a closed loop
// with one client). A run repeats passes over the ops for -seconds and
// prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 the run re-runs the ops with spans, replays every layer
// through its public functions, and reports the per-layer metrics.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload NAME -seed S -seconds N -trace 0|1 [-workers W] [-out FILE] [-spans FILE] [-record]
//	bash bench/run.sh compare -a DIR -b DIR
//
// See bench/README.md for the workloads, the metrics and the baseline.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"linkpad/internal/core"
	"linkpad/internal/obs"
)

// setupEnv carries "workload:seed:workers" to the child processes that
// measure set-up time.
const setupEnv = "LINKPAD_BENCH_SETUP"

// setupProbes is how many times a run sets up; setup_s is the median.
// One set-up takes about 2 ms, most of it process start, and single
// probes vary by ±20% on a shared machine; the median of 41 is steady.
const setupProbes = 41

func main() {
	if arg := os.Getenv(setupEnv); arg != "" {
		os.Exit(setupChild(arg))
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workers  int
	out      string
	spans    string
	record   bool
}

// parseOptions reads and validates the run flags.
func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 3, "workload seed (3 for development, 7 held out)")
	fs.Float64Var(&o.seconds, "seconds", 25, "measure passes for this long (at least one pass)")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	fs.IntVar(&o.workers, "workers", runtime.NumCPU(), "worker goroutines and GOMAXPROCS, at most the CPU count")
	fs.StringVar(&o.out, "out", "", "also write the full run record as JSON to this file")
	fs.StringVar(&o.spans, "spans", "", "traced run: write every span as JSON to this file")
	fs.BoolVar(&o.record, "record", false, "rewrite bench/expected/<workload>.json for this seed (benchmark changes only)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case !slices.Contains(workloadNames, o.workload):
		return o, fmt.Errorf("-workload must be one of %s", strings.Join(workloadNames, ", "))
	case *trace != 0 && *trace != 1:
		return o, errors.New("-trace must be 0 or 1")
	case o.workers < 1 || o.workers > runtime.NumCPU():
		return o, fmt.Errorf("-workers %d is outside [1, %d], the CPU count", o.workers, runtime.NumCPU())
	case !(o.seconds >= 0):
		return o, errors.New("-seconds must be non-negative")
	case o.record && *trace == 1:
		return o, errors.New("-record applies to untraced runs")
	}
	o.trace = *trace == 1
	return o, nil
}

// runMain runs one benchmark run and returns the exit code.
func runMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	ops, err := buildOps(o.workload, o.seed, 1)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var expected []string
	if !o.record {
		if expected, err = expectedDigests(o.workload, o.seed, ops); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	rec, err := execute(o, ops, expected, stderr)
	if err == nil && o.record {
		err = recordDigests(o.workload, o.seed, ops, rec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := writeOutputs(o, rec, stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// report is the line the benchmark prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the -out file: the report plus what a comparison and the
// README need to know about the run.
type record struct {
	Workload  string        `json:"workload"`
	Seed      uint64        `json:"seed"`
	Workers   int           `json:"workers"`
	Trace     bool          `json:"trace"`
	Seconds   float64       `json:"seconds"`
	Passes    []float64     `json:"pass_run_s"`
	GoVersion string        `json:"go_version"`
	NumCPU    int           `json:"nproc"`
	Ops       []opRecord    `json:"ops"`
	Spans     []spanSummary `json:"span_summary,omitempty"`
	Report    report        `json:"report"`

	spans []span
}

// opRecord is one op's digest and median run time over the run's passes.
type opRecord struct {
	Name   string  `json:"name"`
	Digest string  `json:"digest"`
	RunS   float64 `json:"run_s"`
	Error  string  `json:"error,omitempty"`
}

// opOutcome is one op of one pass.
type opOutcome struct {
	runS   float64
	digest string
	err    error
	ctr    [obs.NumCounters]uint64 // counter deltas over the op
}

// passResult is one pass over a workload's ops.
type passResult struct {
	runS  float64 // Σ Scenario.Run wall seconds
	wallS float64 // whole pass: NewSystem, Build and Run
	cpuS  float64 // process CPU seconds over the pass
	ops   []opOutcome
}

// work is the pass's work items: padded packets plus population messages.
func (p *passResult) work() float64 {
	var n uint64
	for _, o := range p.ops {
		n += obs.Packets(o.ctr) + o.ctr[obs.PopulationMessage]
	}
	return float64(n)
}

// runPass builds and runs every op once. With a tracer it records spans
// around NewSystem, Build and Run; with nil it records none.
func runPass(ops []op, workers int, tr *tracer) passResult {
	p := passResult{ops: make([]opOutcome, len(ops))}
	t0, c0 := time.Now(), cpuSeconds()
	for i, o := range ops {
		// Each op starts from a collected heap, so the peak resident set
		// is the op's own, not the op's plus its predecessor's garbage.
		runtime.GC()
		out := &p.ops[i]
		before := obs.Snapshot()
		var sys *core.System
		var sc core.Scenario
		var res *core.Result
		err := tr.span("NewSystem "+o.name, func() (err error) {
			sys, err = core.NewSystem(o.cfg)
			return err
		})
		if err == nil {
			err = tr.span("Build "+o.name, func() (err error) {
				sc, err = sys.Build(o.spec)
				return err
			})
		}
		if err == nil {
			start := time.Now()
			err = tr.span("Run "+o.name, func() (err error) {
				res, err = sc.Run(context.Background(), core.RunOptions{Workers: workers})
				return err
			})
			out.runS = time.Since(start).Seconds()
		}
		if err == nil {
			out.digest, err = fingerprint(res, o)
		}
		out.err = err
		after := obs.Snapshot()
		for c := range after {
			out.ctr[c] = after[c] - before[c]
		}
		p.runS += out.runS
	}
	p.wallS, p.cpuS = time.Since(t0).Seconds(), cpuSeconds()-c0
	return p
}

// checker counts failed ops against the first pass and the committed
// digests.
type checker struct {
	ops      []op
	expected []string // committed digests for this seed, or nil
	first    []string // pass-0 digests
	failed   int
	tried    int
	stderr   io.Writer
}

// pass checks one pass: an op fails on an error or broken invariant, or
// on a digest that differs from pass 0 or from the committed one.
func (c *checker) pass(p passResult) {
	if c.first == nil {
		c.first = make([]string, len(p.ops))
		for i, o := range p.ops {
			c.first[i] = o.digest
		}
	}
	for i, o := range p.ops {
		c.tried++
		var why string
		switch {
		case o.err != nil:
			why = o.err.Error()
		case o.digest != c.first[i]:
			why = "result differs from the first pass"
		case c.expected != nil && o.digest != c.expected[i]:
			why = "result differs from the committed digest"
		}
		if why != "" {
			c.failed++
			fmt.Fprintf(c.stderr, "bench: op %s failed: %s\n", c.ops[i].name, why)
		}
	}
}

// execute runs the workload's ops as o asks and returns the run record.
// expected holds the committed digests the ops must reproduce, or nil.
func execute(o options, ops []op, expected []string, stderr io.Writer) (*record, error) {
	runtime.GOMAXPROCS(o.workers)
	obs.SetEnabled(true)
	chk := &checker{ops: ops, expected: expected, stderr: stderr}
	rec := &record{
		Workload: o.workload, Seed: o.seed, Workers: o.workers, Trace: o.trace,
		Seconds: o.seconds, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
	}
	run := untracedRun
	if o.trace {
		run = tracedRun
	}
	passes, err := run(o, ops, chk, rec)
	if err != nil {
		return nil, err
	}
	for _, p := range passes {
		rec.Passes = append(rec.Passes, p.runS)
	}
	for i, o := range ops {
		times := make([]float64, len(passes))
		for k := range passes {
			times[k] = passes[k].ops[i].runS
		}
		or := opRecord{Name: o.name, Digest: passes[0].ops[i].digest, RunS: median(times)}
		if err := passes[0].ops[i].err; err != nil {
			or.Error = err.Error()
		}
		rec.Ops = append(rec.Ops, or)
	}
	rec.Report.Attempted, rec.Report.Failed = chk.tried, chk.failed
	rec.Report.Correct = chk.failed == 0
	return rec, nil
}

// untracedRun is -trace 0: the set-up probes, then passes over the ops
// until -seconds is spent, and the end-to-end metrics.
func untracedRun(o options, ops []op, chk *checker, rec *record) ([]passResult, error) {
	setup, err := measureSetup(o)
	if err != nil {
		return nil, err
	}
	var passes []passResult
	start := time.Now()
	for {
		p := runPass(ops, o.workers, nil)
		chk.pass(p)
		passes = append(passes, p)
		fmt.Fprintf(chk.stderr, "bench: %s pass %d: run %.3f s\n", o.workload, len(passes), p.runS)
		// Start another pass only if it should end within -seconds.
		if time.Since(start).Seconds()+p.wallS > o.seconds {
			break
		}
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	runs := make([]float64, len(passes))
	rates := make([]float64, len(passes))
	for i := range passes {
		runs[i] = passes[i].runS
		rates[i] = passes[i].work() / passes[i].runS
	}
	rec.Report.Metrics = map[string]metric{
		"run_s":       {median(runs), "s"},
		"work_per_s":  {median(rates), "items/s"},
		"setup_s":     {setup, "s"},
		"peak_rss_mb": {rss, "MiB"},
	}
	return passes, nil
}

// writeOutputs writes the optional files, then prints the report line.
func writeOutputs(o options, rec *record, stdout io.Writer) error {
	if o.out != "" {
		if err := writeJSON(o.out, rec); err != nil {
			return err
		}
	}
	if o.spans != "" {
		if err := writeJSON(o.spans, rec.spans); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rec.Report)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// measureSetup starts the benchmark setupProbes times as a child that
// only sets up — process start, runtime and package init, NewSystem and
// Build for every op — and returns the median wall time.
func measureSetup(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	env := append(os.Environ(), fmt.Sprintf("%s=%s:%d:%d", setupEnv, o.workload, o.seed, o.workers))
	times := make([]float64, setupProbes)
	for i := range times {
		cmd := exec.Command(exe)
		cmd.Env = env
		start := time.Now()
		out, err := cmd.CombinedOutput()
		if err != nil {
			return 0, fmt.Errorf("set-up probe: %w: %s", err, out)
		}
		times[i] = time.Since(start).Seconds()
	}
	return median(times), nil
}

// setupChild is the set-up probe: it sets every op up and exits. A Build
// error is not a set-up failure; the run counts it as a failed op.
func setupChild(arg string) int {
	parts := strings.Split(arg, ":")
	if len(parts) != 3 {
		fmt.Fprintf(os.Stderr, "bench: bad %s=%q\n", setupEnv, arg)
		return 2
	}
	seed, err1 := strconv.ParseUint(parts[1], 10, 64)
	workers, err2 := strconv.Atoi(parts[2])
	ops, err3 := buildOps(parts[0], seed, 1)
	if err := errors.Join(err1, err2, err3); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	runtime.GOMAXPROCS(workers)
	obs.SetEnabled(true)
	for _, o := range ops {
		if sys, err := core.NewSystem(o.cfg); err == nil {
			_, _ = sys.Build(o.spec)
		}
	}
	return 0
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
