// Command linkpadsim regenerates the paper's evaluation tables and
// figures from the simulated link-padding system.
//
// Usage:
//
//	linkpadsim -list
//	linkpadsim -exp fig4b [-scale 1.0] [-seed 1] [-format text|csv] [-workers N]
//	linkpadsim -exp all -o results/
//	linkpadsim -exp all -progress -report report.json
//	linkpadsim -exp all [-report report.json] -bench-json BENCH.json
//	linkpadsim -bench-compare BENCH.json
//	linkpadsim -bench-gate BENCH.json
//	linkpadsim -exp ext-disclosure -checkpoint cp.json [-checkpoint-kill N]
//	linkpadsim -exp scale-disclosure -scale 1 -timeout 10m -max-rss-mb 2048
//	linkpadsim -exp fig8b -cpuprofile cpu.out -memprofile mem.out
//
// Each experiment prints the series the corresponding paper figure plots;
// see DESIGN.md for the experiment index, testdata/golden/ for the
// recorded result tables and BENCH.json for the timing trajectory.
// -bench-json appends the run's -report record (per-experiment wall
// clock, rows, counters and throughput, plus totals) to that trajectory;
// the tables print as in any other run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"linkpad/internal/experiment"
	"linkpad/internal/obs"
)

// The exit codes of a stopped run. A -checkpoint-kill simulated crash
// stopped on purpose with a valid checkpoint on disk, so CI can tell
// "resume me" apart from a real failure's exit 1; a -timeout stop is
// the run's own wall-clock budget running out.
const (
	exitTimeout = 2
	exitKilled  = 3
)

// errTimeout is the cause a -timeout stop carries.
var errTimeout = errors.New("timeout")

func main() {
	os.Exit(exitCode(run(os.Args[1:], os.Stdout, os.Stderr)))
}

// exitCode maps run's error to the process exit code; it is the one
// place a stop's cause becomes one.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, experiment.ErrKilled):
		return exitKilled
	case errors.Is(err, errTimeout):
		return exitTimeout
	default:
		return 1
	}
}

// run is the whole CLI behind a plain function boundary: flags parse
// from args into a private FlagSet and all output, the error included,
// goes to the given writers, so tests drive every flag-validation path
// and every stop in-process. One context stops a run: -timeout's
// deadline, or -checkpoint-kill's budget inside the sweep. On a stop,
// -report is still written and names the experiment and the cause.
func run(args []string, stdout, stderr io.Writer) (err error) {
	defer func() {
		if err != nil {
			fmt.Fprintln(stderr, "linkpadsim:", err)
		}
	}()
	fs := flag.NewFlagSet("linkpadsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expID        = fs.String("exp", "", "experiment id (see -list), or 'all'")
		list         = fs.Bool("list", false, "list available experiments")
		scale        = fs.Float64("scale", 1.0, "Monte Carlo effort multiplier")
		seed         = fs.Uint64("seed", 1, "master random seed")
		workers      = fs.Int("workers", 0, "parallelism (0 = all CPUs); results are identical at any width")
		format       = fs.String("format", "text", "output format: text or csv")
		outDir       = fs.String("o", "", "write per-experiment files into this directory instead of stdout")
		report       = fs.String("report", "", "write a structured JSON run report (per-layer counters, packets/sec) to this file")
		progress     = fs.Bool("progress", false, "emit a live progress line with a cells-completed ETA on stderr")
		benchJSON    = fs.String("bench-json", "", "append the run's -report record to this JSON trajectory file")
		benchCompare = fs.String("bench-compare", "", "print per-experiment wall-clock deltas between the last two comparable records (same scale, seed, workers and effective parallelism) of this bench trajectory file")
		benchGate    = fs.String("bench-gate", "", fmt.Sprintf("like -bench-compare, but exit non-zero if any experiment slowed down by more than %d%%", benchGatePct))
		checkpoint   = fs.String("checkpoint", "", "persist per-cell progress of a checkpointable experiment to this file and resume from it if present")
		cpKill       = fs.Int("checkpoint-kill", 0, "abort with a simulated crash after this many cells finish (requires -checkpoint; exit code 3)")
		timeout      = fs.Duration("timeout", 0, "stop the run at its next check after this wall-clock duration, still writing -report (exit code 2; 0 = no limit)")
		maxRSSMB     = fs.Int("max-rss-mb", 0, "fail the run if peak resident memory (VmHWM) exceeds this many MiB (0 = no ceiling; skipped where /proc is unavailable)")
		cpuProfile   = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile   = fs.String("memprofile", "", "write a pprof heap profile at the end of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, *timeout,
			fmt.Errorf("%w: run exceeded %v", errTimeout, *timeout))
		defer cancel()
	}
	if *benchCompare != "" {
		return runBenchCompare(stdout, *benchCompare)
	}
	if *benchGate != "" {
		return runBenchGate(stdout, *benchGate)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		// Written on the way out so the profile covers the whole run's
		// retained heap, not the startup state.
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "linkpadsim: memprofile:", err)
			}
			f.Close()
		}()
	}
	if *list {
		for _, id := range experiment.Names() {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}
	if *expID == "" && *benchJSON != "" {
		*expID = "all"
	}
	if *expID == "" {
		return fmt.Errorf("missing -exp (try -list)")
	}
	if *format != "text" && *format != "csv" {
		return fmt.Errorf("unknown format %q", *format)
	}
	// Options treats a scale of 0 as 1; anything else non-positive or
	// non-finite would silently run at a floor or fail only when the
	// results are encoded, so it is refused before any work.
	if math.IsNaN(*scale) || math.IsInf(*scale, 0) || *scale < 0 {
		return fmt.Errorf("-scale must be a finite number >= 0 (0 means 1), got %v", *scale)
	}

	ids := []string{*expID}
	if *expID == "all" {
		ids = experiment.Names()
	}
	opts := experiment.Options{Scale: *scale, Seed: *seed, Workers: *workers}

	if *cpKill > 0 && *checkpoint == "" {
		return fmt.Errorf("-checkpoint-kill requires -checkpoint")
	}
	if *checkpoint != "" {
		if *benchJSON != "" {
			return fmt.Errorf("-checkpoint and -bench-json are mutually exclusive")
		}
		if len(ids) != 1 {
			return fmt.Errorf("-checkpoint runs a single experiment, not -exp all")
		}
		if !experiment.Checkpointable(ids[0]) {
			return fmt.Errorf("%s does not support checkpointing (cell experiments only)", ids[0])
		}
	}
	if *maxRSSMB < 0 {
		return fmt.Errorf("-max-rss-mb must be non-negative, got %d", *maxRSSMB)
	}
	if *benchJSON != "" {
		if _, err := loadTrajectory(*benchJSON); err != nil {
			return fmt.Errorf("bench-json: %w", err)
		}
	}

	// Telemetry is off unless a consumer asked for it; the counters are
	// deterministically invisible either way (golden tables byte-identical
	// on or off, enforced by tests), so flipping this cannot change any
	// table.
	if *report != "" || *benchJSON != "" {
		obs.SetEnabled(true)
	}

	prog := newProgress(stderr, *progress)
	prog.start(len(ids))
	defer prog.stop()

	rep := newRunReport(opts)
	var stopped error
	for _, id := range ids {
		start := time.Now()
		before := obs.Snapshot()
		var tbl *experiment.Table
		if *checkpoint != "" {
			tbl, err = experiment.RunCheckpointed(ctx, id, opts, *checkpoint, *cpKill)
		} else {
			tbl, err = experiment.Run(ctx, id, opts)
		}
		if err != nil {
			if ctx.Err() == nil && !errors.Is(err, experiment.ErrKilled) {
				return fmt.Errorf("%s: %w", id, err)
			}
			rep.stop(id, err)
			stopped = err
			break
		}
		elapsed := time.Since(start)
		rep.add(id, elapsed, len(tbl.Rows), before, obs.Snapshot())
		out := io.Writer(stdout)
		var file *os.File
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			ext := map[string]string{"text": "txt", "csv": "csv"}[*format]
			file, err = os.Create(filepath.Join(*outDir, id+"."+ext))
			if err != nil {
				return err
			}
			out = file
		}
		var werr error
		if *format == "csv" {
			werr = tbl.WriteCSV(out)
		} else {
			werr = tbl.WriteText(out)
		}
		if file != nil {
			if cerr := file.Close(); werr == nil {
				werr = cerr
			}
		} else {
			fmt.Fprintln(stdout)
		}
		if werr != nil {
			return werr
		}
		prog.experimentDone(id, elapsed)
	}
	rssMB, rssOK := peakRSSMB()
	rec := rep.finish(rssMB)
	if *report != "" {
		if err := writeJSON(*report, rec); err != nil {
			return fmt.Errorf("report: %w", err)
		}
		fmt.Fprintf(stderr, "run report written to %s\n", *report)
	}
	if stopped != nil {
		return stopped
	}
	if *benchJSON != "" {
		n, err := appendTrajectory(*benchJSON, rec)
		if err != nil {
			return fmt.Errorf("bench-json: %w", err)
		}
		fmt.Fprintf(stderr, "total %v; trajectory appended to %s (%d runs)\n",
			rep.total.Round(time.Millisecond), *benchJSON, n)
	}
	return checkPeakRSS(stderr, *maxRSSMB, rssMB, rssOK)
}
