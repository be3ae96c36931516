package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
		{"report and bench-json", []string{"-exp", "fig4b", "-report", "r.json", "-bench-json", "b.json"}, "mutually exclusive"},
		{"negative max-rss-mb", []string{"-exp", "fig4b", "-max-rss-mb", "-1"}, "must be non-negative"},
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
// its flight-recorder totals; only -bench-json claims the same fields),
// and -max-rss-mb composes with everything as a pure post-run assertion.
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
