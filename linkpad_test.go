package linkpad_test

import (
	"context"
	"math"
	"testing"

	"linkpad"
)

// The facade must expose a working end-to-end path: build the default
// system, attack it, and compare against the re-exported theory.
func TestFacadeEndToEnd(t *testing.T) {
	sys, err := linkpad.NewSystem(linkpad.DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sys.Build(linkpad.AttackSetSpec{
		Attack: linkpad.AttackConfig{
			WindowSize:   500,
			TrainWindows: 80,
			EvalWindows:  80,
		},
		Features: []linkpad.Feature{linkpad.FeatureEntropy},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sc.Run(context.Background(), linkpad.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := out.AttackSet[0]
	if res.DetectionRate < 0.9 {
		t.Errorf("detection = %v, want > 0.9", res.DetectionRate)
	}
	v, err := linkpad.DetectionRateEntropy(res.EmpiricalR, 500)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-res.TheoryDetectionRate) > 1e-12 {
		t.Errorf("facade theorem %v != result theorem %v", v, res.TheoryDetectionRate)
	}
}

func TestFacadeTheorems(t *testing.T) {
	v, err := linkpad.DetectionRateMean(1)
	if err != nil || math.Abs(v-0.5) > 1e-12 {
		t.Errorf("mean v(1) = %v, err %v", v, err)
	}
	n, err := linkpad.SampleSizeVariance(1.9, 0.99)
	if err != nil || n < 100 || n > 10000 {
		t.Errorf("n(99%%) at r=1.9 = %v", n)
	}
	ne, err := linkpad.SampleSizeEntropy(1.9, 0.99)
	if err != nil || ne < 100 || ne > 10000 {
		t.Errorf("entropy n(99%%) at r=1.9 = %v", ne)
	}
	vv, err := linkpad.DetectionRateVariance(1.9, 1000)
	if err != nil || vv < 0.98 {
		t.Errorf("variance v = %v", vv)
	}
}

func TestFacadeExperiments(t *testing.T) {
	names := linkpad.ExperimentNames()
	if len(names) < 10 {
		t.Fatalf("only %d experiments registered", len(names))
	}
	tbl, err := linkpad.RunExperiment(context.Background(), "fig5b", linkpad.ExperimentOptions{Scale: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Error("empty table from facade")
	}
	if _, err := linkpad.RunExperiment(context.Background(), "not-a-figure", linkpad.ExperimentOptions{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestVersion(t *testing.T) {
	if linkpad.Version == "" {
		t.Error("empty version")
	}
}
