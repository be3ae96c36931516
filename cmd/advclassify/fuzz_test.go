package main

import (
	"math"
	"strings"
	"testing"

	"linkpad/internal/trace"
)

// FuzzTraceRead fuzzes the trace parsing advclassify feeds its training
// and evaluation data through: arbitrary input — malformed floats, bare
// '#' lines, empty files, binary garbage — must either parse or error
// cleanly, never panic, and a successful parse must uphold the format's
// contract (at least one sample, metadata map present).
func FuzzTraceRead(f *testing.F) {
	f.Add("# class: 10pps\n0.01\n0.011\n")
	f.Add("")
	f.Add("\n\n\n")
	f.Add("# bare metadata line without colon\n0.01\n")
	f.Add("#\n#:\n# :\n0.01\n")
	f.Add("not-a-float\n")
	f.Add("0.01\n1e309\n")   // overflows float64
	f.Add("NaN\n+Inf\n-Inf") // parse as floats, rejected as PIATs
	f.Add("0.01\n0x1p-3\n0.01e\n")
	f.Add(strings.Repeat("9", 400) + "\n")
	f.Add("# k: v\r\n0.02\r\n") // CR line endings
	f.Fuzz(func(t *testing.T, input string) {
		meta, piats, err := trace.Read(strings.NewReader(input))
		if err != nil {
			return
		}
		if len(piats) == 0 {
			t.Fatal("successful parse returned no samples")
		}
		if meta == nil {
			t.Fatal("successful parse returned nil metadata")
		}
	})
}

// FuzzClassifyWindow fuzzes the classification core downstream of the
// parser with whatever sample values survive parsing (finite,
// non-negative PIATs, degenerate ones included): training on a fuzzed
// trace must error cleanly or classify, never panic.
func FuzzClassifyWindow(f *testing.F) {
	f.Add("0.010\n0.011\n0.009\n0.012\n0.010\n0.011\n0.009\n0.012\n")
	f.Add("NaN\nNaN\nNaN\nNaN\n")
	f.Add("+Inf\n0.01\n-Inf\n0.01\n")
	f.Add("0\n0\n0\n0\n")
	f.Add("-1\n-2\n-3\n-4\n")
	f.Fuzz(func(t *testing.T, input string) {
		_, piats, err := trace.Read(strings.NewReader(input))
		if err != nil || len(piats) < 4 {
			return
		}
		// Mirror the tool's wiring: one fuzzed class against a fixed sane
		// class, windows sized to the shorter trace.
		sane := make([]float64, len(piats))
		for i := range sane {
			sane[i] = 0.01 + 0.0001*math.Sin(float64(i))
		}
		dir := t.TempDir()
		fuzzPath := dir + "/fuzz.piat"
		sanePath := dir + "/sane.piat"
		if err := trace.WriteFile(fuzzPath, map[string]string{"class": "fuzz"}, piats); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteFile(sanePath, map[string]string{"class": "sane"}, sane); err != nil {
			t.Fatal(err)
		}
		// Errors are fine (degenerate data must be rejected); panics are
		// the bug this fuzz target exists to catch.
		_ = classify(&strings.Builder{}, options{
			trainPaths: []string{fuzzPath, sanePath},
			evalPaths:  []string{fuzzPath, sanePath},
			feature:    1, // variance
			window:     len(piats) / 2,
		})
	})
}
