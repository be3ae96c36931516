package adversary

import (
	"errors"
	"strings"
	"testing"

	"linkpad/internal/analytic"
	"linkpad/internal/par"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// rawFlows observes unpadded flows: exit equals entry, so the throughput
// fingerprint is perfect and the matching must be too. Each worker
// reuses one time buffer, as CorrelateFlows allows.
func rawFlows(workers int, duration float64) func(worker, f int) (FlowObs, error) {
	bufs := make([][]float64, par.Workers(workers))
	return func(worker, f int) (FlowObs, error) {
		src, err := traffic.NewPoisson(10+float64(f%2)*30, xrand.New(uint64(7000+f)))
		if err != nil {
			return FlowObs{}, err
		}
		ts := bufs[worker][:0]
		for t := src.Next(); t <= duration; t += src.Next() {
			ts = append(ts, t)
		}
		bufs[worker] = ts
		return FlowObs{Class: f % 2, Entry: ts, Exit: ts}, nil
	}
}

// constantFlows pads every exit flow to an identical CBR stream: zero
// throughput fingerprint, so matching cannot beat chance structurally
// (every score ties and the greedy matching resolves by index, which
// happens to assign everyone correctly — so assert on the correlation,
// not the accuracy).
func constantFlows(duration float64) func(worker, f int) (FlowObs, error) {
	return func(worker, f int) (FlowObs, error) {
		src, err := traffic.NewPoisson(20, xrand.New(uint64(9000+f)))
		if err != nil {
			return FlowObs{}, err
		}
		var o FlowObs
		for t := src.Next(); t <= duration; t += src.Next() {
			o.Entry = append(o.Entry, t)
		}
		for i := 0; i < int(duration*100); i++ {
			o.Exit = append(o.Exit, float64(i)*0.01)
		}
		return o, nil
	}
}

func TestCorrelateFlowsRawIsPerfect(t *testing.T) {
	res, err := CorrelateFlows(12, CorrConfig{Duration: 30}, rawFlows(0, 30))
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows != 12 || res.Accuracy != 1 {
		t.Errorf("raw flows: %d flows at accuracy %v, want 12 at 1", res.Flows, res.Accuracy)
	}
	if res.MeanRank != 1 {
		t.Errorf("raw flows: mean rank %v, want 1", res.MeanRank)
	}
	if res.MeanCorrTrue < 0.999 {
		t.Errorf("raw flows: mean correlation %v, want ≈ 1", res.MeanCorrTrue)
	}
	if res.DegreeOfAnonymity > 0.2 {
		t.Errorf("raw flows: anonymity %v, want ≈ 0", res.DegreeOfAnonymity)
	}
	if res.ClassAccuracy != 0 {
		t.Errorf("no classifiers were supplied, class accuracy should be 0, got %v", res.ClassAccuracy)
	}
}

func TestCorrelateFlowsConstantEgressHasNoFingerprint(t *testing.T) {
	res, err := CorrelateFlows(12, CorrConfig{Duration: 30}, constantFlows(30))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanCorrTrue != 0 {
		t.Errorf("constant egress: mean correlation %v, want 0", res.MeanCorrTrue)
	}
	if res.DegreeOfAnonymity < 0.999 {
		t.Errorf("constant egress: anonymity %v, want 1 (uniform posterior)", res.DegreeOfAnonymity)
	}
}

// Flow results must be identical at any worker width.
func TestCorrelateFlowsWorkerInvariance(t *testing.T) {
	run := func(workers int) *Correlation {
		res, err := CorrelateFlows(12, CorrConfig{Duration: 30, Workers: workers}, rawFlows(workers, 30))
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
	obs := rawFlows(0, 10)
	bad := []struct {
		name    string
		flows   int
		cfg     CorrConfig
		observe func(worker, f int) (FlowObs, error)
	}{
		{"nil observer", 4, CorrConfig{Duration: 10}, nil},
		{"single flow", 1, CorrConfig{Duration: 10}, obs},
		{"zero duration", 4, CorrConfig{}, obs},
		{"sub-window duration", 4, CorrConfig{Duration: 1}, obs},
		{"tiny feature window", 4, CorrConfig{Duration: 10, FeatureWindow: 1}, obs},
		{"unpaired extractor", 4, CorrConfig{Duration: 10, Extractors: []Extractor{{Feature: analytic.FeatureMean}}}, obs},
	}
	for _, c := range bad {
		if _, err := CorrelateFlows(c.flows, c.cfg, c.observe); err == nil || !strings.HasPrefix(err.Error(), "adversary: ") {
			t.Errorf("%s: got %v, want an adversary error", c.name, err)
		}
	}
	// An observation error names its flow and keeps its cause.
	cause := errors.New("tap failed")
	_, err := CorrelateFlows(4, CorrConfig{Duration: 10}, func(worker, f int) (FlowObs, error) {
		if f == 2 {
			return FlowObs{}, cause
		}
		return obs(worker, f)
	})
	if !errors.Is(err, cause) || !strings.HasPrefix(err.Error(), "adversary: flow 2: ") {
		t.Errorf("observation error: got %v", err)
	}
}
