package adversary

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"linkpad/internal/analytic"
	"linkpad/internal/stats"
	"linkpad/internal/xrand"
)

var allFeatures = []analytic.Feature{
	analytic.FeatureMean, analytic.FeatureVariance,
	analytic.FeatureEntropy, analytic.FeatureIQR,
}

// Extract computes the feature statistic of one in-memory window with
// the batch formulas of package stats: the reference the streaming
// pipelines are checked against.
func (e Extractor) Extract(window []float64) (float64, error) {
	if len(window) < 2 {
		return 0, errors.New("adversary: window must hold at least two PIATs")
	}
	switch e.Feature {
	case analytic.FeatureMean:
		return stats.Mean(window), nil
	case analytic.FeatureVariance:
		return stats.Variance(window), nil
	case analytic.FeatureEntropy:
		return stats.Entropy(window, e.binWidth())
	case analytic.FeatureIQR:
		q1, err := stats.Quantile(window, 0.25)
		if err != nil {
			return 0, err
		}
		q3, err := stats.Quantile(window, 0.75)
		if err != nil {
			return 0, err
		}
		return q3 - q1, nil
	default:
		return 0, fmt.Errorf("adversary: unknown feature %v", e.Feature)
	}
}

// The streaming pipeline must reproduce the reference Extractor.Extract
// to 1e-12 relative for every feature.
func TestPipelineMatchesReferenceExtract(t *testing.T) {
	r := xrand.New(101)
	for _, f := range allFeatures {
		e := Extractor{Feature: f}
		p, err := NewPipeline(e)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			n := 50 + r.Intn(500)
			window := make([]float64, n)
			for i := range window {
				window[i] = r.Normal(10e-3, 5e-6)
			}
			want, err := e.Extract(window)
			if err != nil {
				t.Fatal(err)
			}
			src := sliceSource(window)
			got2, err := p.ExtractFrom(&src, n)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got2-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("%v trial %d: ExtractFrom %v vs reference %v", f, trial, got2, want)
			}
		}
	}
}

// sliceSource replays a fixed window.
type sliceSource []float64

func (s *sliceSource) Next() float64 {
	x := (*s)[0]
	*s = (*s)[1:]
	return x
}

// repeatSource cycles a fixed window forever without allocation.
type repeatSource struct {
	vals []float64
	i    int
}

func (s *repeatSource) Next() float64 {
	x := s.vals[s.i]
	s.i++
	if s.i == len(s.vals) {
		s.i = 0
	}
	return x
}

// Zero allocations per window in the steady state, for every feature.
func TestPipelineSteadyStateAllocationFree(t *testing.T) {
	r := xrand.New(5)
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = r.Normal(10e-3, 5e-6)
	}
	src := &repeatSource{vals: vals}
	for _, f := range allFeatures {
		p, err := NewPipeline(Extractor{Feature: f})
		if err != nil {
			t.Fatal(err)
		}
		// Warm up once (histogram/scratch sizing), then measure.
		if _, err := p.ExtractFrom(src, 1000); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := p.ExtractFrom(src, 1000); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("feature %v: %v allocations per window, want 0", f, allocs)
		}
	}
}

func TestMultiPipelineMatchesSinglePipelines(t *testing.T) {
	exts := []Extractor{
		{Feature: analytic.FeatureMean},
		{Feature: analytic.FeatureVariance},
		{Feature: analytic.FeatureEntropy},
		{Feature: analytic.FeatureIQR},
	}
	mp, err := NewMultiPipeline(exts)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(77)
	window := make([]float64, 800)
	for i := range window {
		window[i] = r.Normal(10e-3, 5e-6)
	}
	src := sliceSource(window)
	out := make([]float64, len(exts))
	if err := mp.ExtractFrom(&src, len(window), out); err != nil {
		t.Fatal(err)
	}
	for i, e := range exts {
		want, err := e.Extract(window)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(out[i]-want) > 1e-12*(1+math.Abs(want)) {
			t.Errorf("feature %v: multi %v vs reference %v", e.Feature, out[i], want)
		}
	}
	// Steady state: zero allocations per multi-feature window.
	rep := &repeatSource{vals: window}
	if err := mp.ExtractFrom(rep, len(window), out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := mp.ExtractFrom(rep, len(window), out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("multi-pipeline window costs %v allocations, want 0", allocs)
	}
}

func TestMultiPipelineValidation(t *testing.T) {
	if _, err := NewMultiPipeline(nil); err == nil {
		t.Error("empty extractor set should fail")
	}
	if _, err := NewMultiPipeline([]Extractor{{Feature: analytic.Feature(99)}}); err == nil {
		t.Error("unknown feature should fail")
	}
	mp, err := NewMultiPipeline([]Extractor{{Feature: analytic.FeatureMean}})
	if err != nil {
		t.Fatal(err)
	}
	src := &repeatSource{vals: []float64{1, 2, 3}}
	if err := mp.ExtractFrom(src, 1, make([]float64, 1)); err == nil {
		t.Error("n=1 should fail")
	}
	if err := mp.ExtractFrom(src, 10, nil); err == nil {
		t.Error("short output slice should fail")
	}
}

// FeatureMatrix must be deterministic in the worker count: window w's
// feature depends only on w's own source.
func TestFeatureMatrixWorkerInvariance(t *testing.T) {
	exts := []Extractor{
		{Feature: analytic.FeatureVariance},
		{Feature: analytic.FeatureEntropy},
	}
	factory := func(w int) (PIATSource, error) {
		return gaussSource(uint64(1000+w), 10e-3, 5e-6), nil
	}
	const windows, n = 40, 300
	ref, err := FeatureMatrix(factory, exts, windows, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
		got, err := FeatureMatrix(factory, exts, windows, n, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			for w := range ref[i] {
				if got[i][w] != ref[i][w] {
					t.Fatalf("workers=%d: feature %d window %d differs: %v vs %v",
						workers, i, w, got[i][w], ref[i][w])
				}
			}
		}
	}
	if _, err := FeatureMatrix(factory, exts, 0, n, 1); err == nil {
		t.Error("zero windows should fail")
	}
}
