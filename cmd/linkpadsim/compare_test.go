package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTrajectory writes a synthetic bench trajectory file.
func writeTrajectory(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBenchComparePicksMatchingRecord(t *testing.T) {
	// Three records: the middle one has a different scale and must be
	// skipped; the first is the comparable baseline for the last.
	path := writeTrajectory(t, `[
  {"timestamp":"2026-01-01T00:00:00Z","git_commit":"aaaaaaaaaaaaaaaa","go_version":"go1.24","gomaxprocs":8,
   "scale":0.5,"seed":1,"workers":0,"total_seconds":10,
   "experiments":[{"id":"fig4b","seconds":4,"rows":5},{"id":"gone-exp","seconds":6,"rows":1}]},
  {"timestamp":"2026-01-02T00:00:00Z","git_commit":"bbbbbbbbbbbbbbbb","go_version":"go1.24","gomaxprocs":8,
   "scale":1.0,"seed":1,"workers":0,"total_seconds":99,
   "experiments":[{"id":"fig4b","seconds":99,"rows":5}]},
  {"timestamp":"2026-01-03T00:00:00Z","git_commit":"cccccccccccccccc","go_version":"go1.24","gomaxprocs":8,
   "scale":0.5,"seed":1,"workers":0,"total_seconds":8,
   "experiments":[{"id":"fig4b","seconds":2,"rows":5},{"id":"new-exp","seconds":6,"rows":2}]}
]`)
	var sb strings.Builder
	if err := runBenchCompare(&sb, path); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"old: 2026-01-01T00:00:00Z", // the scale-1.0 record was skipped
		"new: 2026-01-03T00:00:00Z",
		"-50.0%", // fig4b: 4s -> 2s
		"new",    // new-exp has no baseline
		"gone",   // gone-exp vanished
		"-20.0%", // total: 10s -> 8s
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestBenchCompareErrors(t *testing.T) {
	if err := runBenchCompare(&strings.Builder{}, filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file should fail")
	}
	one := writeTrajectory(t, `[{"timestamp":"t","scale":0.5,"seed":1,"workers":0,"experiments":[]}]`)
	if err := runBenchCompare(&strings.Builder{}, one); err == nil {
		t.Error("single record should fail")
	}
	mismatched := writeTrajectory(t, `[
  {"timestamp":"t1","scale":0.5,"seed":1,"workers":0,"experiments":[]},
  {"timestamp":"t2","scale":1.0,"seed":1,"workers":0,"experiments":[]}
]`)
	if err := runBenchCompare(&strings.Builder{}, mismatched); err == nil {
		t.Error("no comparable record should fail")
	}
	garbage := writeTrajectory(t, `{"not":"a trajectory"}`)
	if err := runBenchCompare(&strings.Builder{}, garbage); err == nil {
		t.Error("non-trajectory JSON should fail")
	}
	// workers=0 means "all CPUs": records from machines of different
	// widths are not comparable.
	widths := writeTrajectory(t, `[
  {"timestamp":"t1","gomaxprocs":1,"scale":0.5,"seed":1,"workers":0,"experiments":[]},
  {"timestamp":"t2","gomaxprocs":16,"scale":0.5,"seed":1,"workers":0,"experiments":[]}
]`)
	if err := runBenchCompare(&strings.Builder{}, widths); err == nil {
		t.Error("workers=0 records with different GOMAXPROCS should not be comparable")
	}
	// A comparable pair that shares no experiment IDs would print headers
	// followed by nothing useful; it must fail instead.
	disjoint := writeTrajectory(t, `[
  {"timestamp":"t1","gomaxprocs":8,"scale":0.5,"seed":1,"workers":0,"total_seconds":4,
   "experiments":[{"id":"fig4b","seconds":4,"rows":5}]},
  {"timestamp":"t2","gomaxprocs":8,"scale":0.5,"seed":1,"workers":0,"total_seconds":6,
   "experiments":[{"id":"ext-online","seconds":6,"rows":3}]}
]`)
	if err := runBenchCompare(&strings.Builder{}, disjoint); err == nil {
		t.Error("comparable records sharing no experiments should fail, not print an empty diff")
	} else if !strings.Contains(err.Error(), "share no experiments") {
		t.Errorf("unexpected error for disjoint records: %v", err)
	}
}

func TestBenchCompareZeroBaseline(t *testing.T) {
	// Zero-second baselines (hand-edited or truncated records) must not
	// divide by zero: the delta renders as n/a for both a per-experiment
	// row and the total.
	path := writeTrajectory(t, `[
  {"timestamp":"t1","gomaxprocs":8,"scale":0.5,"seed":1,"workers":0,"total_seconds":0,
   "experiments":[{"id":"fig4b","seconds":0,"rows":5}]},
  {"timestamp":"t2","gomaxprocs":8,"scale":0.5,"seed":1,"workers":0,"total_seconds":2,
   "experiments":[{"id":"fig4b","seconds":2,"rows":5}]}
]`)
	var sb strings.Builder
	if err := runBenchCompare(&sb, path); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "n/a"); got != 2 {
		t.Errorf("want 2 n/a deltas (row + total), got %d:\n%s", got, sb.String())
	}
}

func TestBenchGate(t *testing.T) {
	// One experiment regresses 3x, one is fine, and one regresses 10x but
	// from a 1 ms baseline under the noise floor: only the first gates.
	path := writeTrajectory(t, `[
  {"timestamp":"t1","gomaxprocs":8,"scale":0.5,"seed":1,"workers":0,"total_seconds":3.101,
   "experiments":[{"id":"fig8b","seconds":1,"rows":5},{"id":"fig4b","seconds":2.1,"rows":5},
                  {"id":"ext-sizes","seconds":0.001,"rows":2}]},
  {"timestamp":"t2","gomaxprocs":8,"scale":0.5,"seed":1,"workers":0,"total_seconds":5.01,
   "experiments":[{"id":"fig8b","seconds":3,"rows":5},{"id":"fig4b","seconds":2,"rows":5},
                  {"id":"ext-sizes","seconds":0.01,"rows":2}]}
]`)
	var sb strings.Builder
	err := runBenchGate(&sb, path)
	if err == nil {
		t.Fatal("a 3x per-experiment regression should gate")
	}
	if !strings.Contains(err.Error(), "fig8b") {
		t.Errorf("gate error should name fig8b: %v", err)
	}
	if strings.Contains(err.Error(), "ext-sizes") {
		t.Errorf("sub-floor baselines must not gate: %v", err)
	}
	if !strings.Contains(sb.String(), "gate: fail on > +25%") {
		t.Errorf("gate header missing:\n%s", sb.String())
	}
}

func TestBenchGatePassesOnSpeedup(t *testing.T) {
	path := writeTrajectory(t, `[
  {"timestamp":"t1","gomaxprocs":8,"scale":0.5,"seed":1,"workers":0,"total_seconds":4,
   "experiments":[{"id":"fig8b","seconds":4,"rows":5}]},
  {"timestamp":"t2","gomaxprocs":8,"scale":0.5,"seed":1,"workers":0,"total_seconds":2,
   "experiments":[{"id":"fig8b","seconds":2,"rows":5}]}
]`)
	if err := runBenchGate(&strings.Builder{}, path); err != nil {
		t.Errorf("speedups must never gate: %v", err)
	}
}

func TestDeltaPct(t *testing.T) {
	if got := deltaPct(4, 2); got != "-50.0%" {
		t.Errorf("deltaPct(4, 2) = %q", got)
	}
	if got := deltaPct(0, 2); got != "n/a" {
		t.Errorf("deltaPct(0, 2) = %q", got)
	}
}

// Records pair by effective parallelism, min(workers, GOMAXPROCS): at
// -workers 2 a run on one core is a one-wide run, so it is never the
// baseline of a run on two cores, however recent it is.
func TestBenchComparePairsByEffectiveParallelism(t *testing.T) {
	path := writeTrajectory(t, `[
  {"timestamp":"t1","gomaxprocs":2,"scale":0.05,"seed":3,"workers":2,"total_seconds":2,
   "experiments":[{"id":"fig8b","seconds":2,"rows":5}]},
  {"timestamp":"t2","gomaxprocs":1,"scale":0.05,"seed":3,"workers":2,"total_seconds":4,
   "experiments":[{"id":"fig8b","seconds":4,"rows":5}]},
  {"timestamp":"t3","gomaxprocs":4,"scale":0.05,"seed":3,"workers":2,"total_seconds":2.1,
   "experiments":[{"id":"fig8b","seconds":2.1,"rows":5}]}
]`)
	prev, last, err := comparablePair(path)
	if err != nil {
		t.Fatal(err)
	}
	if last.Timestamp != "t3" || prev.Timestamp != "t1" {
		t.Errorf("paired %s with %s; want t3 with the two-wide t1, never the one-core t2",
			last.Timestamp, prev.Timestamp)
	}
	only := writeTrajectory(t, `[
  {"timestamp":"t1","gomaxprocs":1,"scale":0.05,"seed":3,"workers":2,"total_seconds":4,
   "experiments":[{"id":"fig8b","seconds":4,"rows":5}]},
  {"timestamp":"t2","gomaxprocs":2,"scale":0.05,"seed":3,"workers":2,"total_seconds":2,
   "experiments":[{"id":"fig8b","seconds":2,"rows":5}]}
]`)
	if prev, _, err := comparablePair(only); err == nil {
		t.Errorf("a GOMAXPROCS-1 record (%s) became the baseline of a GOMAXPROCS-2 run", prev.Timestamp)
	}
}
