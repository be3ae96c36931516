package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"linkpad/internal/experiment"
	"linkpad/internal/obs"
)

// tryRun invokes the CLI in-process with quiet writers and returns the
// error plus captured stderr.
func tryRun(t *testing.T, args ...string) (error, string) {
	t.Helper()
	var out, errw bytes.Buffer
	err := run(args, &out, &errw)
	return err, errw.String()
}

// Every flag-validation rejection path must fire before any experiment
// runs, with an error naming the conflict.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"missing exp", nil, "missing -exp"},
		{"unknown format", []string{"-exp", "fig4b", "-format", "yaml"}, `unknown format "yaml"`},
		{"kill without checkpoint", []string{"-exp", "ext-disclosure", "-checkpoint-kill", "2"}, "-checkpoint-kill requires -checkpoint"},
		{"checkpoint and bench-json", []string{"-exp", "ext-disclosure", "-checkpoint", "cp.json", "-bench-json", "b.json"}, "mutually exclusive"},
		{"checkpoint all", []string{"-exp", "all", "-checkpoint", "cp.json"}, "single experiment"},
		{"non-checkpointable", []string{"-exp", "fig4b", "-checkpoint", "cp.json"}, "does not support checkpointing"},
		{"negative max-rss-mb", []string{"-exp", "fig4b", "-max-rss-mb", "-1"}, "must be non-negative"},
		{"NaN scale", []string{"-exp", "fig4b", "-scale", "NaN"}, "-scale must be a finite number"},
		{"NaN scale with checkpoint", []string{"-exp", "ext-disclosure", "-scale", "NaN", "-checkpoint", "cp.json"}, "-scale must be a finite number"},
		{"NaN scale with bench-json", []string{"-exp", "fig4b", "-scale", "NaN", "-bench-json", "b.json"}, "-scale must be a finite number"},
		{"infinite scale", []string{"-exp", "fig4b", "-scale", "+Inf"}, "-scale must be a finite number"},
		{"negative scale", []string{"-exp", "fig4b", "-scale", "-1"}, "-scale must be a finite number"},
		{"unknown flag", []string{"-no-such-flag"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err, _ := tryRun(t, tc.args...)
			if err == nil {
				t.Fatalf("args %v accepted; want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("args %v: error %q does not mention %q", tc.args, err, tc.want)
			}
		})
	}
}

// The output-mode flag matrix, positive half: combinations the CLI must
// accept. -report composes with -checkpoint (a resumable run still wants
// its flight-recorder totals), and -max-rss-mb composes with everything
// as a pure post-run assertion.
func TestRunFlagMatrixPositive(t *testing.T) {
	defer func() {
		obs.SetEnabled(false)
		obs.Reset()
	}()
	obs.Reset()
	dir := t.TempDir()
	report := filepath.Join(dir, "report.json")
	cp := filepath.Join(dir, "cp.json")
	// scale-disclosure at the floor population: the cheapest
	// checkpointable experiment, so the matrix test stays a smoke test.
	err, _ := tryRun(t, "-exp", "scale-disclosure", "-scale", "0.001", "-seed", "3",
		"-checkpoint", cp, "-report", report, "-max-rss-mb", "4096")
	if err != nil {
		t.Fatalf("-report with -checkpoint rejected: %v", err)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not decode: %v", err)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].ID != "scale-disclosure" {
		t.Fatalf("report experiments = %+v", rep.Experiments)
	}
	if _, err := os.Stat(cp); err != nil {
		t.Errorf("checkpoint file not persisted alongside -report: %v", err)
	}
}

// -max-rss-mb is a post-run ceiling: a generous ceiling passes and
// reports the measured peak; an absurdly low one fails the run. Skipped
// where the platform does not expose VmHWM.
func TestRunMaxRSSCeiling(t *testing.T) {
	if _, ok := peakRSSMB(); !ok {
		t.Skip("no VmHWM on this platform")
	}
	err, stderr := tryRun(t, "-exp", "scale-disclosure", "-scale", "0.001", "-seed", "3",
		"-max-rss-mb", "8192")
	if err != nil {
		t.Fatalf("generous RSS ceiling failed: %v", err)
	}
	if !strings.Contains(stderr, "peak RSS") {
		t.Errorf("no peak-RSS line on stderr:\n%s", stderr)
	}
	err, _ = tryRun(t, "-exp", "scale-disclosure", "-scale", "0.001", "-seed", "3",
		"-max-rss-mb", "1")
	if err == nil || !strings.Contains(err.Error(), "exceeds -max-rss-mb") {
		t.Errorf("1 MiB ceiling not enforced: err=%v", err)
	}
}

// A -bench-json run logs each experiment's time and the run's total to
// the stderr writer run is given, like every other output of run, marks
// its experiments done for the closing -progress line, and appends one
// record to the trajectory file.
func TestRunBenchJSONLogsToStderr(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	err, stderr := runQuiet(t, "-exp", "fig5b", "-scale", "0.05", "-seed", "3", "-progress", "-bench-json", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig5b: done in ", "progress: exp 1/1,", "total ",
		"trajectory appended to " + path + " (1 runs)"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trajectory []RunReport
	if err := json.Unmarshal(data, &trajectory); err != nil {
		t.Fatalf("trajectory does not decode: %v", err)
	}
	if len(trajectory) != 1 || len(trajectory[0].Experiments) != 1 || trajectory[0].Experiments[0].ID != "fig5b" {
		t.Errorf("trajectory = %+v, want one fig5b record", trajectory)
	}
}

// -timeout stops the run in-process through its context: run returns
// the timeout cause, prints it on the stderr writer it is given, and
// still writes -report, whose stopped field names the experiment in
// flight. fig8b at full scale runs for seconds; the deadline comes
// first.
func TestRunTimeoutReportsToStderrWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	err, stderr := runQuiet(t, "-exp", "fig8b", "-workers", "1", "-timeout", "50ms", "-report", path)
	if !errors.Is(err, errTimeout) || exitCode(err) != exitTimeout {
		t.Fatalf("run returned %v (exit code %d), want the timeout cause (exit code %d)", err, exitCode(err), exitTimeout)
	}
	if !strings.Contains(stderr, "linkpadsim: timeout: run exceeded 50ms") {
		t.Errorf("timeout message missing from the stderr writer:\n%s", stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no -report after the stop: %v", err)
	}
	var rep RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not decode: %v", err)
	}
	if rep.Stopped == nil || rep.Stopped.Experiment != "fig8b" || rep.Stopped.Cause != "timeout: run exceeded 50ms" {
		t.Errorf("report stopped = %+v, want fig8b stopped by the timeout", rep.Stopped)
	}
	if len(rep.Experiments) != 0 {
		t.Errorf("report lists %d finished experiments, want none", len(rep.Experiments))
	}
}

// -checkpoint-kill stops through the same path: exit code 3, the kill's
// cause on the stderr writer, and a -report naming the experiment.
func TestRunCheckpointKillReports(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.json")
	err, stderr := runQuiet(t, "-exp", "scale-disclosure", "-scale", "0.001", "-seed", "3",
		"-checkpoint", filepath.Join(dir, "cp.json"), "-checkpoint-kill", "1", "-report", path)
	if exitCode(err) != exitKilled {
		t.Fatalf("run returned %v (exit code %d), want exit code %d", err, exitCode(err), exitKilled)
	}
	if !strings.Contains(stderr, "linkpadsim: "+experiment.ErrKilled.Error()) {
		t.Errorf("kill message missing from the stderr writer:\n%s", stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no -report after the kill: %v", err)
	}
	var rep RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not decode: %v", err)
	}
	if rep.Stopped == nil || rep.Stopped.Experiment != "scale-disclosure" || rep.Stopped.Cause != experiment.ErrKilled.Error() {
		t.Errorf("report stopped = %+v, want scale-disclosure killed", rep.Stopped)
	}
}

// exitCode is the one map from run's error to the exit code: a kill's
// cause and a timeout's keep their codes however they are wrapped.
func TestExitCode(t *testing.T) {
	timeout := fmt.Errorf("%w: run exceeded 1s", errTimeout)
	for _, tc := range []struct {
		err  error
		want int
	}{
		{nil, 0},
		{errors.New("boom"), 1},
		{timeout, exitTimeout},
		{fmt.Errorf("x: %w", timeout), exitTimeout},
		{experiment.ErrKilled, exitKilled},
		{fmt.Errorf("x: %w", experiment.ErrKilled), exitKilled},
	} {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("exitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestRunList(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-list"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fig4b") {
		t.Errorf("-list output lacks fig4b:\n%s", out.String())
	}
}

// An end-to-end -report run: the report decodes, its counters are
// non-zero, its packet totals agree with the counter arithmetic, and
// the per-experiment timing line lands on stderr even in stdout mode
// (it used to print only with -o).
func TestRunReportSmoke(t *testing.T) {
	defer func() {
		obs.SetEnabled(false)
		obs.Reset()
	}()
	obs.Reset()
	path := filepath.Join(t.TempDir(), "report.json")
	var out, errw bytes.Buffer
	err := run([]string{"-exp", "fig4b", "-scale", "0.05", "-seed", "3", "-progress", "-report", path}, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw.String(), "fig4b: done in ") {
		t.Errorf("stderr lacks the per-experiment timing line:\n%s", errw.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not decode: %v", err)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].ID != "fig4b" {
		t.Fatalf("report experiments = %+v", rep.Experiments)
	}
	e := rep.Experiments[0]
	if e.Packets == 0 || e.Counters["gateway_payload"] == 0 || e.Counters["adv_window"] == 0 {
		t.Errorf("report counters degenerate: packets=%d counters=%v", e.Packets, e.Counters)
	}
	if want := e.Counters["gateway_payload"] + e.Counters["gateway_dummy"] + e.Counters["mix_packet"]; e.Packets != want {
		t.Errorf("packets = %d, want counter sum %d", e.Packets, want)
	}
	if rep.Totals.Packets != e.Packets {
		t.Errorf("totals.packets = %d, want %d", rep.Totals.Packets, e.Packets)
	}
	if mb, ok := peakRSSMB(); ok && !(rep.Totals.PeakRSSMB > 0 && rep.Totals.PeakRSSMB <= mb) {
		t.Errorf("totals.peak_rss_mb = %v, want in (0, %v]", rep.Totals.PeakRSSMB, mb)
	}

	// A disclosure runner moves no padded packets; its work unit is the
	// population's messages, which must be reported and non-zero.
	err, _ = tryRun(t, "-exp", "scale-disclosure", "-scale", "0.001", "-seed", "3", "-report", path)
	if err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	rep = RunReport{}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not decode: %v", err)
	}
	if len(rep.Experiments) != 1 {
		t.Fatalf("report experiments = %+v", rep.Experiments)
	}
	e = rep.Experiments[0]
	if e.Messages == 0 || e.MessagesPerSec <= 0 {
		t.Errorf("disclosure runner reports messages=%d messages_per_sec=%v, want both non-zero",
			e.Messages, e.MessagesPerSec)
	}
	if want := e.Counters["population_message"]; e.Messages != want {
		t.Errorf("messages = %d, want the population_message delta %d", e.Messages, want)
	}
	if rep.Totals.Messages != e.Messages || rep.Totals.MessagesPerSec <= 0 {
		t.Errorf("totals messages = %d (%v/s), want %d", rep.Totals.Messages, rep.Totals.MessagesPerSec, e.Messages)
	}
}
