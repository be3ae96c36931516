package adversary

import (
	"errors"
	"runtime"
	"testing"

	"linkpad/internal/analytic"
	"linkpad/internal/xrand"
)

// rngSource is a deterministic continuous PIAT stream for online tests.
type rngSource struct {
	rng  *xrand.Rand
	mean float64
}

func (s *rngSource) Next() float64 { return s.rng.Exp(s.mean) }

// Consecutive windows from an OnlineExtractor must equal slicing the same
// stream by hand and extracting each slice: windowing is observation,
// never perturbation.
func TestOnlineExtractorMatchesManualSlicing(t *testing.T) {
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
	online, err := NewOnlineExtractorShared(shared, &rngSource{rng: xrand.New(42), mean: 10e-3}, n)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(exts))
	for w := 0; w < windows; w++ {
		if err := online.NextWindow(out); err != nil {
			t.Fatal(err)
		}
		mp, err := NewMultiPipeline(exts)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, len(exts))
		if err := mp.ExtractFrom(&sliceSrc{xs: stream[w*n : (w+1)*n]}, n, want); err != nil {
			t.Fatal(err)
		}
		for i := range exts {
			if out[i] != want[i] {
				t.Fatalf("window %d extractor %d: online %v != manual %v", w, i, out[i], want[i])
			}
		}
	}
}

type sliceSrc struct {
	xs []float64
	i  int
}

func (s *sliceSrc) Next() float64 {
	x := s.xs[s.i]
	s.i++
	return x
}

func TestOnlineExtractorValidation(t *testing.T) {
	mp, err := NewMultiPipeline([]Extractor{{Feature: analytic.FeatureMean}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewOnlineExtractorShared(mp, nil, 10); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := NewOnlineExtractorShared(mp, &rngSource{rng: xrand.New(1), mean: 1}, 1); err == nil {
		t.Error("window size 1 accepted")
	}
	if _, err := NewOnlineExtractorShared(nil, &rngSource{rng: xrand.New(1), mean: 1}, 10); err == nil {
		t.Error("nil pipeline accepted")
	}
	if _, err := NewMultiPipeline(nil); err == nil {
		t.Error("empty extractor set accepted")
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
	p, err := NewPipeline(exts[0])
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < wps; w++ {
		want, err := p.ExtractFrom(src, n)
		if err != nil {
			t.Fatal(err)
		}
		if mat[0][w] != want {
			t.Fatalf("window %d: %v != consecutive reference %v", w, mat[0][w], want)
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
