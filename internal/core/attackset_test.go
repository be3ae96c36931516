package core

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"linkpad/internal/analytic"
)

// An attack set must produce, per feature, exactly the result of a
// single-feature attack: both draw the same per-trial stream replicas, so
// sharing the simulated windows across features is purely an optimization.
func TestRunAttackSetMatchesSingleRuns(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	attack := AttackConfig{
		WindowSize:   300,
		TrainWindows: 40,
		EvalWindows:  40,
	}
	features := []analytic.Feature{
		analytic.FeatureMean, analytic.FeatureVariance, analytic.FeatureEntropy,
	}
	out, err := runSpec(sys, AttackSetSpec{Attack: attack, Features: features})
	if err != nil {
		t.Fatal(err)
	}
	set := out.AttackSet
	if len(set) != len(features) {
		t.Fatalf("got %d results for %d features", len(set), len(features))
	}
	for i, f := range features {
		single := attack
		single.Feature = f
		out, err := runSpec(sys, AttackSetSpec{Attack: single, Features: []analytic.Feature{single.Feature}})
		if err != nil {
			t.Fatal(err)
		}
		res := out.AttackSet[0]
		if set[i].Feature != f {
			t.Errorf("result %d reports feature %v, want %v", i, set[i].Feature, f)
		}
		if set[i].DetectionRate != res.DetectionRate {
			t.Errorf("%v: set detection %v vs single %v", f, set[i].DetectionRate, res.DetectionRate)
		}
		if set[i].EmpiricalR != res.EmpiricalR {
			t.Errorf("%v: set r %v vs single %v", f, set[i].EmpiricalR, res.EmpiricalR)
		}
		if set[i].TheoryDetectionRate != res.TheoryDetectionRate {
			t.Errorf("%v: set theory %v vs single %v", f, set[i].TheoryDetectionRate, res.TheoryDetectionRate)
		}
	}
}

// Attack results must be identical at any trial-parallelism width.
func TestRunAttackWorkerInvariance(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := AttackConfig{
		Feature:      analytic.FeatureEntropy,
		WindowSize:   300,
		TrainWindows: 30,
		EvalWindows:  30,
	}
	run := func(workers int) (*AttackResult, error) {
		out, err := runSpecAt(sys, AttackSetSpec{Attack: base, Features: []analytic.Feature{base.Feature}}, workers)
		if err != nil {
			return nil, err
		}
		return out.AttackSet[0], nil
	}
	ref, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
		got, err := run(workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.DetectionRate != ref.DetectionRate || got.EmpiricalR != ref.EmpiricalR {
			t.Fatalf("workers=%d: detection %v / r %v differ from reference %v / %v",
				workers, got.DetectionRate, got.EmpiricalR, ref.DetectionRate, ref.EmpiricalR)
		}
		for tc := 0; tc < 2; tc++ {
			for pc := 0; pc < 2; pc++ {
				if got.Confusion.Count(tc, pc) != ref.Confusion.Count(tc, pc) {
					t.Fatalf("workers=%d: confusion[%d][%d] differs", workers, tc, pc)
				}
			}
		}
	}
}

func TestRunAttackSetValidation(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSpec(sys, AttackSetSpec{}); err == nil {
		t.Error("empty feature set should fail")
	}
	cfg := AttackConfig{TrainWindows: 1, Feature: analytic.FeatureVariance}
	_, buildErr := sys.Build(AttackSetSpec{Attack: cfg, Features: []analytic.Feature{analytic.FeatureMean}})
	if buildErr == nil {
		t.Fatal("a single training window should fail")
	}
	// CalibrateVIT reaches the attack set without Build; it must reject
	// the same configuration with the same error.
	if _, err := sys.CalibrateVIT(0.8, cfg, RunOptions{}); err == nil || err.Error() != buildErr.Error() {
		t.Errorf("CalibrateVIT error %v, want Build's %v", err, buildErr)
	}
	// Nor does it skip the finite rule.
	cfg = AttackConfig{Feature: analytic.FeatureEntropy, EntropyBinWidth: math.NaN()}
	if _, err := sys.CalibrateVIT(0.8, cfg, RunOptions{}); err == nil || !strings.Contains(err.Error(), "EntropyBinWidth") {
		t.Errorf("CalibrateVIT error %v, want one naming EntropyBinWidth", err)
	}
}

// The multi-rate (m > 2) path must work through the set API as well:
// no EmpiricalR/theory, but valid per-class confusion.
func TestRunAttackSetMultiRate(t *testing.T) {
	cfg := DefaultLabConfig()
	cfg.Rates = []Rate{
		{Label: "10pps", PPS: 10},
		{Label: "20pps", PPS: 20},
		{Label: "40pps", PPS: 40},
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runSpec(sys, AttackSetSpec{Attack: AttackConfig{
		WindowSize:   300,
		TrainWindows: 30,
		EvalWindows:  30,
	}, Features: []analytic.Feature{analytic.FeatureEntropy}})
	if err != nil {
		t.Fatal(err)
	}
	set := out.AttackSet
	res := set[0]
	if res.EmpiricalR != 0 || res.TheoryDetectionRate != 0 {
		t.Errorf("m=3 should not report two-class diagnostics: r=%v theory=%v",
			res.EmpiricalR, res.TheoryDetectionRate)
	}
	if res.Confusion.Total() != 90 {
		t.Errorf("confusion total = %d, want 90", res.Confusion.Total())
	}
	if res.DetectionRate < 1.0/3 {
		t.Errorf("detection %v below guessing", res.DetectionRate)
	}
}
