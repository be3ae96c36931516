package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"linkpad/internal/obs"
)

// oldRecord is a one-record trajectory in the shape -bench-json wrote
// before it appended run reports: total_seconds, no counters, no totals.
const oldRecord = `[
  {
    "timestamp": "2026-10-18T04:51:07Z",
    "git_commit": "ff832aee48a4",
    "go_version": "go1.24.0",
    "gomaxprocs": 1,
    "scale": 0.05,
    "seed": 3,
    "workers": 1,
    "experiments": [
      {
        "id": "fig5b",
        "seconds": 0.0012,
        "rows": 10,
        "packets": 0,
        "packets_per_sec": 0
      }
    ],
    "total_seconds": 0.0012
  }
]
`

// runQuiet drives the CLI with telemetry reset before and after, so
// counter deltas and progress gauges start from zero.
func runQuiet(t *testing.T, args ...string) (error, string) {
	t.Helper()
	obs.Reset()
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.Reset()
	})
	return tryRun(t, args...)
}

// Appending to a trajectory keeps every earlier record's bytes, old
// shape included, and -bench-compare pairs the old record with the new.
func TestBenchJSONKeepsOldRecords(t *testing.T) {
	path := writeTrajectory(t, oldRecord)
	if err, _ := runQuiet(t, "-exp", "fig5b", "-scale", "0.05", "-seed", "3", "-workers", "1",
		"-bench-json", path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if kept := strings.TrimSuffix(oldRecord, "\n]\n") + ",\n"; !strings.HasPrefix(string(data), kept) {
		t.Fatalf("old record rewritten; trajectory now starts:\n%.600s", data)
	}
	var sb strings.Builder
	if err := runBenchCompare(&sb, path); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "old: 2026-10-18T04:51:07Z") {
		t.Errorf("new record not paired with the old one:\n%s", out)
	}
	if !strings.Contains(out, "fig5b") || !strings.Contains(out, "%") {
		t.Errorf("no fig5b delta:\n%s", out)
	}
}

// One invocation with -report and -bench-json writes the same record to
// both files.
func TestReportAndBenchJSONAgree(t *testing.T) {
	dir := t.TempDir()
	report, bench := filepath.Join(dir, "report.json"), filepath.Join(dir, "bench.json")
	if err, _ := runQuiet(t, "-exp", "fig4b", "-scale", "0.05", "-seed", "3",
		"-report", report, "-bench-json", bench); err != nil {
		t.Fatal(err)
	}
	var rep RunReport
	var trajectory []RunReport
	for path, v := range map[string]any{report: &rep, bench: &trajectory} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("%s does not decode: %v", path, err)
		}
	}
	if len(trajectory) != 1 {
		t.Fatalf("trajectory holds %d records, want 1", len(trajectory))
	}
	if !reflect.DeepEqual(rep.Experiments, trajectory[0].Experiments) {
		t.Errorf("experiments differ:\nreport %+v\nbench  %+v", rep.Experiments, trajectory[0].Experiments)
	}
	if rep.Experiments[0].Packets == 0 {
		t.Errorf("fig4b record carries no packets: %+v", rep.Experiments[0])
	}
}

// A file that is not a trajectory of run records is refused before any
// experiment runs, so no table is printed, and left as it was.
func TestBenchJSONRefusesForeignFile(t *testing.T) {
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.Reset()
	})
	for _, body := range []string{`{"not":"a trajectory"}`, `[1, 2]`, `[{"timestamp":`} {
		path := writeTrajectory(t, body)
		var tables bytes.Buffer
		err := run([]string{"-exp", "fig5b", "-scale", "0.05", "-seed", "3", "-bench-json", path}, &tables, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "not a bench trajectory") {
			t.Errorf("%s: err = %v, want a refusal", body, err)
		}
		if tables.Len() > 0 {
			t.Errorf("%s: %d bytes of tables printed before the refusal; the file must be checked before any experiment runs",
				body, tables.Len())
		}
		if data, _ := os.ReadFile(path); string(data) != body {
			t.Errorf("%s: file rewritten to %s", body, data)
		}
	}
}
