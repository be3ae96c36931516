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

// corrCfg is the attack's configuration over duration seconds at the
// default feature window, with no classifiers.
func corrCfg(duration float64) CorrConfig {
	return CorrConfig{Duration: duration, FeatureWindow: 200}
}

// rawFlows observes unpadded flows: exit equals entry, so the throughput
// fingerprint is perfect and the matching must be too. The entry tap
// counts each arrival as it is drawn; each worker reuses one exit
// buffer, as CorrelateFlows allows.
func rawFlows(workers int, duration float64) func(worker, f int, entry []float64) (FlowObs, error) {
	bufs := make([][]float64, par.Workers(workers))
	return func(worker, f int, entry []float64) (FlowObs, error) {
		src, err := traffic.NewPoisson(10+float64(f%2)*30, xrand.New(uint64(7000+f)))
		if err != nil {
			return FlowObs{}, err
		}
		ts := bufs[worker][:0]
		for t := src.Next(); t <= duration; t += src.Next() {
			CountRate(entry, t)
			ts = append(ts, t)
		}
		bufs[worker] = ts
		return FlowObs{Class: f % 2, Exit: ts}, nil
	}
}

// constantFlows pads every exit flow to an identical CBR stream: zero
// throughput fingerprint, so matching cannot beat chance structurally
// (every score ties and the greedy matching resolves by index, which
// happens to assign everyone correctly — so assert on the correlation,
// not the accuracy).
func constantFlows(duration float64) func(worker, f int, entry []float64) (FlowObs, error) {
	return func(worker, f int, entry []float64) (FlowObs, error) {
		src, err := traffic.NewPoisson(20, xrand.New(uint64(9000+f)))
		if err != nil {
			return FlowObs{}, err
		}
		var o FlowObs
		for t := src.Next(); t <= duration; t += src.Next() {
			CountRate(entry, t)
		}
		for i := 0; i < int(duration*100); i++ {
			o.Exit = append(o.Exit, float64(i)*0.01)
		}
		return o, nil
	}
}

func TestCorrelateFlowsRawIsPerfect(t *testing.T) {
	res, err := CorrelateFlows(12, corrCfg(30), rawFlows(0, 30))
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
	res, err := CorrelateFlows(12, corrCfg(30), constantFlows(30))
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
		cfg := corrCfg(30)
		cfg.Workers = workers
		res, err := CorrelateFlows(12, cfg, rawFlows(workers, 30))
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
		observe func(worker, f int, entry []float64) (FlowObs, error)
	}{
		{"nil observer", 4, corrCfg(10), nil},
		{"single flow", 1, corrCfg(10), obs},
		{"zero duration", 4, corrCfg(0), obs},
		{"sub-window duration", 4, corrCfg(1), obs},
		{"zero feature window", 4, CorrConfig{Duration: 10}, obs},
		{"tiny feature window", 4, CorrConfig{Duration: 10, FeatureWindow: 1}, obs},
		{"unpaired extractor", 4, CorrConfig{Duration: 10, FeatureWindow: 200, Extractors: []Extractor{{Feature: analytic.FeatureMean}}}, obs},
	}
	for _, c := range bad {
		if _, err := CorrelateFlows(c.flows, c.cfg, c.observe); err == nil || !strings.HasPrefix(err.Error(), "adversary: ") {
			t.Errorf("%s: got %v, want an adversary error", c.name, err)
		}
	}
	// An observation error names its flow and keeps its cause.
	cause := errors.New("tap failed")
	_, err := CorrelateFlows(4, corrCfg(10), func(worker, f int, entry []float64) (FlowObs, error) {
		if f == 2 {
			return FlowObs{}, cause
		}
		return obs(worker, f, entry)
	})
	if !errors.Is(err, cause) || !strings.HasPrefix(err.Error(), "adversary: flow 2: ") {
		t.Errorf("observation error: got %v", err)
	}
}

// shiftedFlows observes each flow's Poisson entry at the exit 0.4 s
// later with every fifth packet lost, so the throughput fingerprints
// correlate strongly but not perfectly. Entry times and observations are
// precomputed; observe counts flow f's entry times into its row, as an
// entry tap does.
func shiftedFlows(flows int, duration float64) (observe func(worker, f int, entry []float64) (FlowObs, error), entries [][]float64) {
	obs := make([]FlowObs, flows)
	entries = make([][]float64, flows)
	for f := range obs {
		rng := xrand.New(uint64(4000 + f))
		o := &obs[f]
		o.Class = f % 2
		for t := rng.Exp(0.5); t <= duration; t += rng.Exp(0.5) {
			entries[f] = append(entries[f], t)
			if len(entries[f])%5 != 0 {
				o.Exit = append(o.Exit, t+0.4)
			}
		}
	}
	return func(_, f int, entry []float64) (FlowObs, error) {
		for _, t := range entries[f] {
			CountRate(entry, t)
		}
		return obs[f], nil
	}, entries
}

// The parallel centered scorer must reproduce the sequential two-pass
// Pearson scorer exactly, at any worker width.
func TestCorrelateFlowsMatchesOracle(t *testing.T) {
	const flows, duration = 9, 40.0
	observe, entries := shiftedFlows(flows, duration)
	bins := int(duration / RateWindow)
	entry, exit := make([][]float64, flows), make([][]float64, flows)
	classes := make([]int, flows)
	for f := range flows {
		o, _ := observe(0, f, nil)
		classes[f] = o.Class
		entry[f] = rateVectorRef(entries[f], make([]float64, bins))
		exit[f] = rateVectorRef(o.Exit, make([]float64, bins))
	}
	score := make([]float64, flows*flows)
	corrTrue := 0.0
	for f := range flows {
		for u := range flows {
			corr, err := pearsonOracle(entry[u], exit[f])
			if err != nil {
				t.Fatal(err)
			}
			score[u*flows+f] = corrWeight * corr
			if u == f {
				corrTrue += corr
			}
		}
	}
	sum, err := SummarizeMatch(score, flows, make([][]float64, flows), classes)
	if err != nil {
		t.Fatal(err)
	}
	want := Correlation{
		Flows: flows, Accuracy: sum.Accuracy, ClassAccuracy: sum.ClassAccuracy, MeanRank: sum.MeanRank,
		MeanCorrTrue:      corrTrue / flows,
		DegreeOfAnonymity: MeanAnonymity(score, flows),
	}
	if want.MeanCorrTrue < 0.5 {
		t.Fatalf("oracle mean true correlation %v: the fixture should carry a fingerprint", want.MeanCorrTrue)
	}
	for _, w := range []int{1, 2, 0} {
		cfg := corrCfg(duration)
		cfg.Workers = w
		got, err := CorrelateFlows(flows, cfg, observe)
		if err != nil {
			t.Fatal(err)
		}
		if *got != want {
			t.Fatalf("workers=%d: %+v differs from the sequential oracle %+v", w, got, want)
		}
	}
}

// BenchmarkCorrelateFlowsScore measures the flow-correlation attack at
// the route-watermark workload's geometry (64 flows, 960 one-second
// bins) on every CPU, in ns per (entry, exit) pair. Observations replay
// precomputed times, so the rate counting is a small share and the
// pairwise scoring dominates.
func BenchmarkCorrelateFlowsScore(b *testing.B) {
	const flows, duration = 64, 960.0
	observe, _ := shiftedFlows(flows, duration)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := CorrelateFlows(flows, corrCfg(duration), observe); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*flows*flows), "ns/pair")
}
