package population

import (
	"strings"
	"testing"

	"linkpad/internal/adversary"
	"linkpad/internal/analytic"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// rawFlowSim simulates unpadded flows: egress equals ingress, so the
// throughput fingerprint is perfect and the matching must be too.
func rawFlowSim(user int, duration float64) (*Flow, error) {
	rng := xrand.New(uint64(7000 + user))
	src, err := traffic.NewPoisson(10+float64(user%2)*30, rng)
	if err != nil {
		return nil, err
	}
	f := &Flow{Class: user % 2}
	t := 0.0
	for {
		t += src.Next()
		if t > duration {
			break
		}
		f.Ingress = append(f.Ingress, t)
		f.Egress = append(f.Egress, t)
	}
	return f, nil
}

// constantFlowSim pads every egress flow to an identical CBR stream:
// zero throughput fingerprint, so matching cannot beat chance
// structurally (every score ties and the greedy matching resolves by
// index, which happens to assign everyone correctly — so assert on the
// correlation, not the accuracy).
func constantFlowSim(user int, duration float64) (*Flow, error) {
	rng := xrand.New(uint64(9000 + user))
	src, err := traffic.NewPoisson(20, rng)
	if err != nil {
		return nil, err
	}
	f := &Flow{Class: 0}
	t := 0.0
	for {
		t += src.Next()
		if t > duration {
			break
		}
		f.Ingress = append(f.Ingress, t)
	}
	for i := 0; i < int(duration*100); i++ {
		f.Egress = append(f.Egress, float64(i)*0.01)
	}
	return f, nil
}

func TestCorrelateFlowsRawIsPerfect(t *testing.T) {
	res, err := CorrelateFlows(rawFlowSim, 12, FlowCorrConfig{Duration: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy != 1 {
		t.Errorf("raw flows: accuracy %v, want 1", res.Accuracy)
	}
	if res.MeanRank != 1 {
		t.Errorf("raw flows: mean rank %v, want 1", res.MeanRank)
	}
	if res.MeanCorrTrue < 0.999 {
		t.Errorf("raw flows: mean correlation %v, want ≈ 1", res.MeanCorrTrue)
	}
	if res.ClassAccuracy != 0 {
		t.Errorf("no classifiers were supplied, class accuracy should be 0, got %v", res.ClassAccuracy)
	}
}

func TestCorrelateFlowsConstantEgressHasNoFingerprint(t *testing.T) {
	res, err := CorrelateFlows(constantFlowSim, 12, FlowCorrConfig{Duration: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanCorrTrue > 0.05 || res.MeanCorrTrue < -0.05 {
		t.Errorf("constant egress: mean correlation %v, want ≈ 0", res.MeanCorrTrue)
	}
}

// Flow results must be identical at any worker width.
func TestCorrelateFlowsWorkerInvariance(t *testing.T) {
	run := func(workers int) *FlowCorrResult {
		res, err := CorrelateFlows(rawFlowSim, 12, FlowCorrConfig{Duration: 30, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, w := range []int{2, 4, 0} {
		got := run(w)
		if *got != *ref {
			t.Fatalf("workers=%d: %+v differs from reference %+v", w, got, ref)
		}
	}
}

func TestCorrelateFlowsValidation(t *testing.T) {
	if _, err := CorrelateFlows(nil, 4, FlowCorrConfig{Duration: 10}); err == nil {
		t.Error("nil simulator should fail")
	}
	if _, err := CorrelateFlows(rawFlowSim, 1, FlowCorrConfig{Duration: 10}); err == nil {
		t.Error("single user should fail")
	}
	if _, err := CorrelateFlows(rawFlowSim, 4, FlowCorrConfig{}); err == nil {
		t.Error("zero duration should fail")
	}
	if _, err := CorrelateFlows(rawFlowSim, 4, FlowCorrConfig{Duration: 1}); err == nil {
		t.Error("sub-window duration should fail")
	}
	for _, cfg := range []FlowCorrConfig{
		{Duration: 10, FeatureWindow: 1},
		{Duration: 10, Extractors: []adversary.Extractor{{Feature: analytic.FeatureMean}}},
	} {
		if _, err := CorrelateFlows(rawFlowSim, 4, cfg); err == nil || !strings.HasPrefix(err.Error(), "population: ") {
			t.Errorf("tiny feature window or unpaired extractor: got %v, want a population error", err)
		}
	}
}
