package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"linkpad/internal/core"
)

// smokeScale shrinks every workload budget about 100× for the self-tests.
const smokeScale = 0.01

// TestMain lets the test binary serve as its own set-up probe child.
func TestMain(m *testing.M) {
	if arg := os.Getenv(setupEnv); arg != "" {
		os.Exit(setupChild(arg))
	}
	os.Exit(m.Run())
}

// smoke runs ops once at smoke size and returns the record and the line
// the benchmark prints last.
func smoke(t *testing.T, workload string, ops []op, trace bool, workers int) (*record, map[string]any) {
	t.Helper()
	o := options{workload: workload, seed: 3, trace: trace, workers: workers}
	rec, err := execute(o, ops, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := writeOutputs(o, rec, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	return rec, last
}

func digests(rec *record) []string {
	var d []string
	for _, o := range rec.Ops {
		d = append(d, o.Digest)
	}
	return d
}

// TestWorkloads runs every workload at smoke size untraced at one and at
// every worker, and traced. Digests must not depend on the worker count
// or on tracing (the traced run also fails ops whose counter deltas
// differ from the untraced pass), and every BENCHMARK.json metric must be
// printed by name with its unit.
func TestWorkloads(t *testing.T) {
	def, err := loadBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range def.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			ops, err := buildOps(wl, 3, smokeScale)
			if err != nil {
				t.Fatal(err)
			}
			one, _ := smoke(t, wl, ops, false, 1)
			all, line := smoke(t, wl, ops, false, runtime.NumCPU())
			traced, tline := smoke(t, wl, ops, true, runtime.NumCPU())
			for _, r := range []*record{one, all, traced} {
				if !r.Report.Correct || r.Report.Failed != 0 {
					t.Fatalf("workers %d trace %t: %d of %d ops failed: %+v", r.Workers, r.Trace, r.Report.Failed, r.Report.Attempted, r.Ops)
				}
			}
			if d1, dn := digests(one), digests(all); strings.Join(d1, ",") != strings.Join(dn, ",") {
				t.Errorf("digests differ between -workers 1 and %d:\n%v\n%v", runtime.NumCPU(), d1, dn)
			}
			if dn, dt := digests(all), digests(traced); strings.Join(dn, ",") != strings.Join(dt, ",") {
				t.Errorf("traced digests differ from untraced:\n%v\n%v", dn, dt)
			}
			checkLine(t, line, endToEnd)
			checkLine(t, tline, perLayer)
		})
	}
}

// checkLine checks the printed report: exactly the four keys, and exactly
// the wanted metrics, each with its unit and a finite value.
func checkLine(t *testing.T, line map[string]any, want map[string]string) {
	t.Helper()
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("report lacks %q", k)
		}
	}
	if len(line) != 4 {
		t.Errorf("report has %d keys, want 4: %v", len(line), line)
	}
	metrics, _ := line["metrics"].(map[string]any)
	if len(metrics) != len(want) {
		t.Errorf("report has %d metrics, want %d", len(metrics), len(want))
	}
	for name, unit := range want {
		m, ok := metrics[name].(map[string]any)
		if !ok {
			t.Errorf("metric %s not printed", name)
			continue
		}
		if m["unit"] != unit {
			t.Errorf("metric %s unit %v, want %s", name, m["unit"], unit)
		}
		if v, ok := m["value"].(float64); !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s value %v", name, m["value"])
		}
	}
}

// An op whose spec Build rejects counts as one failed op; the others run.
func TestInvalidSpecFailsOneOp(t *testing.T) {
	ops, err := buildOps("sda-league", 3, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	bad := ops[0]
	bad.name = "sda/one-user"
	sp := bad.spec.(core.DisclosureSpec)
	sp.Population.Users = 1
	bad.spec = sp
	ops = append(ops[:1], append([]op{bad}, ops[1:]...)...)
	rec, _ := smoke(t, "sda-league", ops, false, 1)
	if rec.Report.Failed != 1 || rec.Report.Attempted != len(ops) || rec.Report.Correct {
		t.Fatalf("failed %d of %d, correct %t; want 1 of %d", rec.Report.Failed, rec.Report.Attempted, rec.Report.Correct, len(ops))
	}
	for i, o := range rec.Ops {
		if (o.Digest == "") != (i == 1) {
			t.Errorf("op %s: digest %q, error %q", o.Name, o.Digest, o.Error)
		}
	}
}

func TestWorkersAboveCPUCountRefused(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", "sda-league", "-workers", strconv.Itoa(runtime.NumCPU() + 1)}
	if code := runMain(args, &stdout, &stderr); code == 0 || stdout.Len() > 0 {
		t.Fatalf("exit %d, stdout %q; want a refusal and no report", code, stdout.String())
	}
	if !strings.Contains(stderr.String(), "CPU count") {
		t.Errorf("stderr %q does not name the CPU count", stderr.String())
	}
}

func TestFingerprintInvariants(t *testing.T) {
	o := op{spec: core.AttackSetSpec{}}
	good := &core.Result{AttackSet: []*core.AttackResult{{DetectionRate: 0.75, EmpiricalR: 1.9}}}
	d1, err := fingerprint(good, o)
	if err != nil {
		t.Fatal(err)
	}
	good.AttackSet[0].EmpiricalR = math.Nextafter(1.9, 2)
	if d2, _ := fingerprint(good, o); d1 == d2 {
		t.Error("digest ignores the last bit of a float")
	}
	for _, bad := range []*core.AttackResult{{DetectionRate: 1.5}, {DetectionRate: 0.5, EmpiricalR: math.NaN()}} {
		if _, err := fingerprint(&core.Result{AttackSet: []*core.AttackResult{bad}}, o); err == nil {
			t.Errorf("%+v passed the invariant checks", bad)
		}
	}
}

// Quartiles must match Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		if got := quartiles(c.v); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", []float64{1.01, 1.00, 0.99, 1.02, 0.98}, "unchanged"},
		{"slower", []float64{1.30, 1.31, 1.29, 1.32, 1.28}, "worse"},
		{"faster", []float64{0.70, 0.71, 0.69, 0.72, 0.68}, "better"},
		{"noisy", []float64{0.8, 1.3, 1.0, 0.7, 1.4}, "unresolved"},
		{"noisy but all slower", []float64{1.5, 2.5, 2.0, 1.2, 3.0}, "worse"},
	} {
		if got := verdict(base, c.b, 0.1, false).name; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if got := verdict(base, []float64{0.7, 0.7, 0.7}, 0.1, true).name; got != "worse" {
		t.Errorf("lower throughput: verdict %s, want worse", got)
	}
}

// compare exits non-zero when a metric got worse or more ops failed.
func TestCompareExitCode(t *testing.T) {
	write := func(dir string, runS float64, failed int) {
		for i := 0; i < 3; i++ {
			rec := record{Workload: "sda-league", Report: report{
				Correct: failed == 0, Attempted: 27, Failed: failed,
				Metrics: map[string]metric{"run_s": {runS * (1 + 0.01*float64(i)), "s"}},
			}}
			if err := writeJSON(filepath.Join(dir, strconv.Itoa(i)+".json"), rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	bench := filepath.Join("..", "BENCHMARK.json")
	for _, c := range []struct {
		name    string
		runS    float64
		failed  int
		wantErr bool
	}{
		{"unchanged", 1, 0, false},
		{"slower", 2, 0, true},
		{"failing", 1, 1, true},
	} {
		a, b := t.TempDir(), t.TempDir()
		write(a, 1, 0)
		write(b, c.runS, c.failed)
		var out bytes.Buffer
		code := compareMain([]string{"-a", a, "-b", b, "-benchmark", bench}, &out, io.Discard)
		if (code != 0) != c.wantErr {
			t.Errorf("%s: exit %d\n%s", c.name, code, out.String())
		}
	}
}
