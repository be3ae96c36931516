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

// A single-extractor pipeline must reproduce the reference
// Extractor.Extract to 1e-12 relative for every feature.
func TestPipelineMatchesReferenceExtract(t *testing.T) {
	r := xrand.New(101)
	out := make([]float64, 1)
	for _, f := range allFeatures {
		e := Extractor{Feature: f}
		p, err := NewMultiPipeline([]Extractor{e})
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
			if err := p.ExtractFrom(&src, n, out); err != nil {
				t.Fatal(err)
			}
			if math.Abs(out[0]-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("%v trial %d: ExtractFrom %v vs reference %v", f, trial, out[0], want)
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

// Zero allocations per window in the steady state, for every feature on
// its own.
func TestPipelineSteadyStateAllocationFree(t *testing.T) {
	r := xrand.New(5)
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = r.Normal(10e-3, 5e-6)
	}
	src := &repeatSource{vals: vals}
	out := make([]float64, 1)
	for _, f := range allFeatures {
		p, err := NewMultiPipeline([]Extractor{{Feature: f}})
		if err != nil {
			t.Fatal(err)
		}
		// Warm up once (histogram/scratch sizing), then measure.
		if err := p.ExtractFrom(src, 1000, out); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := p.ExtractFrom(src, 1000, out); err != nil {
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

// rngSource is a deterministic continuous PIAT stream for online tests.
type rngSource struct {
	rng  *xrand.Rand
	mean float64
}

func (s *rngSource) Next() float64 { return s.rng.Exp(s.mean) }

// Consecutive ExtractFrom calls on one continuous stream must equal
// slicing the same stream by hand and extracting each slice: windowing
// is observation, never perturbation.
func TestExtractFromMatchesManualSlicing(t *testing.T) {
	exts := []Extractor{
		{Feature: analytic.FeatureMean},
		{Feature: analytic.FeatureVariance},
		{Feature: analytic.FeatureEntropy},
	}
	const n, windows = 64, 8
	// Reference: collect the raw continuous stream, then extract slices.
	raw := &rngSource{rng: xrand.New(42), mean: 10e-3}
	stream := make([]float64, n*windows)
	for i := range stream {
		stream[i] = raw.Next()
	}
	shared, err := NewMultiPipeline(exts)
	if err != nil {
		t.Fatal(err)
	}
	online := &rngSource{rng: xrand.New(42), mean: 10e-3}
	out := make([]float64, len(exts))
	for w := 0; w < windows; w++ {
		if err := shared.ExtractFrom(online, n, out); err != nil {
			t.Fatal(err)
		}
		mp, err := NewMultiPipeline(exts)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, len(exts))
		slice := sliceSource(stream[w*n : (w+1)*n])
		if err := mp.ExtractFrom(&slice, n, want); err != nil {
			t.Fatal(err)
		}
		for i := range exts {
			if out[i] != want[i] {
				t.Fatalf("window %d extractor %d: online %v != manual %v", w, i, out[i], want[i])
			}
		}
	}
}

// SessionFeatureMatrix must be byte-identical at any worker count: every
// session derives its stream from its own index.
func TestSessionFeatureMatrixWorkerInvariance(t *testing.T) {
	exts := []Extractor{
		{Feature: analytic.FeatureVariance},
		{Feature: analytic.FeatureEntropy},
	}
	factory := func(s int) (PIATSource, error) {
		return &rngSource{rng: xrand.New(uint64(1000 + s)), mean: 10e-3}, nil
	}
	const sessions, wps, n = 6, 5, 50
	ref, err := SessionFeatureMatrix(factory, exts, sessions, wps, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(exts) || len(ref[0]) != sessions*wps {
		t.Fatalf("matrix shape [%d][%d], want [%d][%d]", len(ref), len(ref[0]), len(exts), sessions*wps)
	}
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
		got, err := SessionFeatureMatrix(factory, exts, sessions, wps, n, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			for j := range ref[i] {
				if got[i][j] != ref[i][j] {
					t.Fatalf("workers=%d: [%d][%d] = %v, want %v", workers, i, j, got[i][j], ref[i][j])
				}
			}
		}
	}
}

// Windows within one session must be consecutive (state carried), not
// replicas: the matrix for one session equals manually reading
// wps windows in a row from one stream.
func TestSessionFeatureMatrixConsecutiveWindows(t *testing.T) {
	exts := []Extractor{{Feature: analytic.FeatureMean}}
	factory := func(s int) (PIATSource, error) {
		return &rngSource{rng: xrand.New(77), mean: 1e-3}, nil
	}
	const wps, n = 4, 32
	mat, err := SessionFeatureMatrix(factory, exts, 1, wps, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := &rngSource{rng: xrand.New(77), mean: 1e-3}
	p, err := NewMultiPipeline(exts)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 1)
	for w := 0; w < wps; w++ {
		if err := p.ExtractFrom(src, n, want); err != nil {
			t.Fatal(err)
		}
		if mat[0][w] != want[0] {
			t.Fatalf("window %d: %v != consecutive reference %v", w, mat[0][w], want[0])
		}
	}
}

func TestSessionFeatureMatrixErrors(t *testing.T) {
	exts := []Extractor{{Feature: analytic.FeatureMean}}
	bad := errors.New("factory failed")
	_, err := SessionFeatureMatrix(func(int) (PIATSource, error) { return nil, bad }, exts, 2, 2, 10, 1)
	if !errors.Is(err, bad) {
		t.Errorf("factory error not propagated: %v", err)
	}
	if _, err := SessionFeatureMatrix(nil, exts, 0, 2, 10, 1); err == nil {
		t.Error("zero sessions accepted")
	}
	if _, err := SessionFeatureMatrix(nil, exts, 2, 0, 10, 1); err == nil {
		t.Error("zero windows accepted")
	}
}
