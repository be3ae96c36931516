package main

import (
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"linkpad/internal/analytic"
	"linkpad/internal/core"
	"linkpad/internal/trace"
)

func TestParseFeature(t *testing.T) {
	cases := []struct {
		name string
		want analytic.Feature
		ok   bool
	}{
		{"mean", analytic.FeatureMean, true},
		{"variance", analytic.FeatureVariance, true},
		{"entropy", analytic.FeatureEntropy, true},
		{"iqr", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := parseFeature(c.name)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("parseFeature(%q) = (%v, %v), want %v", c.name, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("parseFeature(%q) accepted", c.name)
		}
	}
}

// writeClassTrace simulates the padded stream of one class and writes it
// as a trace file, returning the path.
func writeClassTrace(t *testing.T, dir, name, label string, class int, streamID uint64, n int) string {
	t.Helper()
	sys, err := core.NewSystem(core.DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, err := sys.PIATSource(class, streamID)
	if err != nil {
		t.Fatal(err)
	}
	piats := make([]float64, n)
	for i := range piats {
		piats[i] = src.Next()
	}
	path := filepath.Join(dir, name)
	if err := trace.WriteFile(path, map[string]string{"class": label}, piats); err != nil {
		t.Fatal(err)
	}
	return path
}

// End-to-end: traces generated from the lab system train the classifier
// and the evaluation traces are identified nearly perfectly — the
// variance leak survives the file round-trip.
func TestClassifyEndToEnd(t *testing.T) {
	dir := t.TempDir()
	const window = 500
	const piats = 20 * window
	lowTrain := writeClassTrace(t, dir, "low-train.piat", "10pps", 0, 1, piats)
	highTrain := writeClassTrace(t, dir, "high-train.piat", "40pps", 1, 1, piats)
	lowEval := writeClassTrace(t, dir, "low-eval.piat", "10pps", 0, 2, piats)
	highEval := writeClassTrace(t, dir, "high-eval.piat", "40pps", 1, 2, piats)

	var out strings.Builder
	err := classify(&out, options{
		trainPaths: []string{lowTrain, highTrain},
		evalPaths:  []string{lowEval, highEval},
		feature:    analytic.FeatureEntropy,
		window:     window,
	})
	if err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{"feature: entropy", "window: 500", "10pps", "40pps", "detection rate"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	// Parse the detection rate off the confusion summary; CIT at n=500 is
	// nearly fully detectable.
	idx := strings.Index(report, "detection rate:")
	if idx < 0 {
		t.Fatalf("no detection rate in report:\n%s", report)
	}
	fields := strings.Fields(report[idx:])
	rate, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		t.Fatalf("unparseable detection rate %q: %v", fields[2], err)
	}
	if rate < 0.85 {
		t.Errorf("detection rate = %v, want > 0.85", rate)
	}
}

// Error paths: mismatched class counts, short traces, missing files.
func TestClassifyValidation(t *testing.T) {
	dir := t.TempDir()
	const window = 500
	low := writeClassTrace(t, dir, "low.piat", "10pps", 0, 1, 4*window)
	high := writeClassTrace(t, dir, "high.piat", "40pps", 1, 1, 4*window)

	if err := classify(&strings.Builder{}, options{
		trainPaths: []string{low},
		evalPaths:  []string{low},
		feature:    analytic.FeatureVariance,
		window:     window,
	}); err == nil {
		t.Error("single-class training accepted")
	}
	if err := classify(&strings.Builder{}, options{
		trainPaths: []string{low, high},
		evalPaths:  []string{low},
		feature:    analytic.FeatureVariance,
		window:     window,
	}); err == nil {
		t.Error("mismatched evaluation trace count accepted")
	}
	if err := classify(&strings.Builder{}, options{
		trainPaths: []string{low, high},
		evalPaths:  []string{low, high},
		feature:    analytic.FeatureVariance,
		window:     10 * window, // too large for the trace length
	}); err == nil {
		t.Error("too-short training traces accepted")
	}
	if err := classify(&strings.Builder{}, options{
		trainPaths: []string{filepath.Join(dir, "missing.piat"), high},
		evalPaths:  []string{low, high},
		feature:    analytic.FeatureVariance,
		window:     window,
	}); err == nil {
		t.Error("missing training trace accepted")
	}
	// A NaN or negative PIAT is a corrupt trace, not a window that
	// silently classifies as class 0.
	_, piats, err := trace.ReadFile(low)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{math.NaN(), -0.01} {
		bad := filepath.Join(dir, "bad.piat")
		if err := trace.WriteFile(bad, nil, append([]float64{x}, piats[1:]...)); err != nil {
			t.Fatal(err)
		}
		if err := classify(&strings.Builder{}, options{
			trainPaths: []string{low, high},
			evalPaths:  []string{bad, high},
			feature:    analytic.FeatureVariance,
			window:     window,
		}); err == nil {
			t.Errorf("evaluation trace with a %v PIAT accepted", x)
		}
	}
}

// Traces without a class label fall back to positional labels.
func TestClassifyDefaultLabels(t *testing.T) {
	dir := t.TempDir()
	const window = 300
	sys, err := core.NewSystem(core.DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, class int, id uint64) string {
		src, err := sys.PIATSource(class, id)
		if err != nil {
			t.Fatal(err)
		}
		xs := make([]float64, 6*window)
		for i := range xs {
			xs[i] = src.Next()
		}
		path := filepath.Join(dir, name)
		if err := trace.WriteFile(path, nil, xs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out strings.Builder
	err = classify(&out, options{
		trainPaths: []string{write("a.piat", 0, 1), write("b.piat", 1, 1)},
		evalPaths:  []string{write("c.piat", 0, 2), write("d.piat", 1, 2)},
		feature:    analytic.FeatureVariance,
		window:     window,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "class0") || !strings.Contains(out.String(), "class1") {
		t.Errorf("default labels missing:\n%s", out.String())
	}
}

// A non-positive or degenerate window size must error, not panic with a
// divide by zero.
func TestClassifyRejectsBadWindow(t *testing.T) {
	dir := t.TempDir()
	low := writeClassTrace(t, dir, "low.piat", "10pps", 0, 1, 1000)
	high := writeClassTrace(t, dir, "high.piat", "40pps", 1, 1, 1000)
	for _, w := range []int{0, -5, 1} {
		err := classify(&strings.Builder{}, options{
			trainPaths: []string{low, high},
			evalPaths:  []string{low, high},
			feature:    analytic.FeatureVariance,
			window:     w,
		})
		if err == nil {
			t.Errorf("window %d accepted", w)
		}
	}
}
