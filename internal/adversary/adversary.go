// Package adversary implements the paper's attacker (§3.3): a passive
// observer who taps the padded stream, collects samples of n packet
// inter-arrival times, reduces each sample to one feature statistic
// (sample mean, sample variance, or sample entropy), trains per-class
// feature densities off-line with Gaussian KDE, and classifies run-time
// samples with the Bayes rule. Detection rates are estimated by Monte
// Carlo over fresh evaluation windows.
//
// Determinism contract: extractors are pure reductions — all randomness
// lives in the PIAT sources the caller supplies — and the parallel
// training/evaluation helpers (FeatureMatrix, SessionFeatureMatrix)
// assign each window or session its own pre-seeded source, so matrices
// are byte-identical at any worker count.
//
// Allocation discipline: the hot path is allocation-free in steady
// state. MultiPipeline reduces one simulated window through every
// extractor in a single streaming pass (Welford moments, a reusable
// dense histogram, quickselect quantiles), and Evaluate reuses
// per-worker window buffers across trials.
package adversary

import (
	"errors"
	"fmt"

	"linkpad/internal/analytic"
	"linkpad/internal/bayes"
	"linkpad/internal/stats"
)

// PIATSource yields successive packet inter-arrival times of the padded
// stream as seen at the adversary's tap.
type PIATSource interface {
	Next() float64
}

// DefaultEntropyBinWidth is the constant histogram bin width (paper
// eq. 25 requires a constant Δh) used by the sample-entropy feature:
// 2 µs resolves the µs-scale class peaks of the calibrated gateway.
const DefaultEntropyBinWidth = 2e-6

// Extractor reduces a PIAT window to one feature statistic.
type Extractor struct {
	// Feature selects the statistic.
	Feature analytic.Feature
	// EntropyBinWidth is the constant bin width for the entropy feature;
	// zero selects DefaultEntropyBinWidth.
	EntropyBinWidth float64
}

// binWidth returns the effective entropy bin width.
func (e Extractor) binWidth() float64 {
	if e.EntropyBinWidth > 0 {
		return e.EntropyBinWidth
	}
	return DefaultEntropyBinWidth
}

// Features reads `windows` consecutive windows of size n from src and
// returns their feature values. Each window is reduced in one streaming
// pass through a reusable Pipeline, so beyond the returned slice the
// steady state allocates nothing per window.
func Features(src PIATSource, e Extractor, windows, n int) ([]float64, error) {
	if windows <= 0 || n < 2 {
		return nil, errors.New("adversary: need windows > 0 and n >= 2")
	}
	p, err := NewPipeline(e)
	if err != nil {
		return nil, err
	}
	out := make([]float64, windows)
	for i := range out {
		f, err := p.ExtractFrom(src, n)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// TrainConfig describes the off-line training phase.
type TrainConfig struct {
	// Extractor selects the feature statistic.
	Extractor Extractor
	// WindowSize is the run-time sample size n.
	WindowSize int
	// WindowsPerClass is the number of training windows collected per
	// class.
	WindowsPerClass int
	// GaussianFit selects a parametric normal fit of the feature
	// densities instead of the paper's Gaussian KDE (ablation).
	GaussianFit bool
	// Priors are the a-priori class probabilities; nil means equal.
	Priors []float64
}

// Validate checks the configuration.
func (c TrainConfig) Validate() error {
	if c.WindowSize < 2 {
		return errors.New("adversary: window size must be at least 2")
	}
	if c.WindowsPerClass < 2 {
		return errors.New("adversary: need at least two training windows per class")
	}
	return nil
}

// Attacker is a trained adversary ready for run-time classification.
type Attacker struct {
	classifier *bayes.Classifier
	extractor  Extractor
	windowSize int
	labels     []string
	// TrainFeatures keeps the per-class training feature samples for
	// diagnostics (e.g. measuring the empirical variance ratio).
	TrainFeatures [][]float64
}

// Train runs the off-line phase: for each class it draws training windows
// from that class's PIAT source, extracts features, and fits the
// class-conditional densities.
func Train(cfg TrainConfig, labels []string, sources []PIATSource) (*Attacker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(labels) != len(sources) {
		return nil, errors.New("adversary: labels/sources length mismatch")
	}
	if len(labels) < 2 {
		return nil, errors.New("adversary: need at least two classes")
	}
	features := make([][]float64, len(labels))
	for i, src := range sources {
		if src == nil {
			return nil, fmt.Errorf("adversary: nil source for class %q", labels[i])
		}
		f, err := Features(src, cfg.Extractor, cfg.WindowsPerClass, cfg.WindowSize)
		if err != nil {
			return nil, fmt.Errorf("adversary: class %q: %w", labels[i], err)
		}
		features[i] = f
	}
	var cls *bayes.Classifier
	var err error
	if cfg.GaussianFit {
		cls, err = bayes.TrainGaussian(labels, features, cfg.Priors)
	} else {
		cls, err = bayes.TrainKDE(labels, features, cfg.Priors)
	}
	if err != nil {
		return nil, err
	}
	return &Attacker{
		classifier:    cls,
		extractor:     cfg.Extractor,
		windowSize:    cfg.WindowSize,
		labels:        append([]string(nil), labels...),
		TrainFeatures: features,
	}, nil
}

// Classifier exposes the underlying Bayes classifier.
func (a *Attacker) Classifier() *bayes.Classifier { return a.classifier }

// Evaluate estimates the detection rate by classifying windowsPerClass
// fresh windows from each class source (which must be independent of the
// training streams, mirroring the paper's off-line/run-time split).
// Windows are reduced through a reusable streaming pipeline — zero
// allocations per window — and each class's feature batch is scored with
// one ClassifyBatch call.
func (a *Attacker) Evaluate(sources []PIATSource, windowsPerClass int) (*bayes.Confusion, error) {
	if len(sources) != len(a.labels) {
		return nil, errors.New("adversary: evaluation sources do not match training classes")
	}
	if windowsPerClass <= 0 {
		return nil, errors.New("adversary: need at least one evaluation window per class")
	}
	p, err := NewPipeline(a.extractor)
	if err != nil {
		return nil, err
	}
	cm := bayes.NewConfusion(a.labels)
	feats := make([]float64, windowsPerClass)
	var preds []int
	for class, src := range sources {
		if src == nil {
			return nil, fmt.Errorf("adversary: nil evaluation source for class %q", a.labels[class])
		}
		for w := range feats {
			f, err := p.ExtractFrom(src, a.windowSize)
			if err != nil {
				return nil, err
			}
			feats[w] = f
		}
		preds = a.classifier.ClassifyBatch(feats, preds)
		for _, pred := range preds {
			cm.Add(class, pred)
		}
	}
	return cm, nil
}

// EmpiricalR estimates the paper's variance ratio r = σ_h²/σ_l² from raw
// PIAT streams: it reads n PIATs from each of the two sources and returns
// the ratio of their sample variances (high/low as given). Each source is
// consumed a slab at a time when it supports batching; the two streams
// are independent and their accumulators separate, so the batched
// traversal order yields the identical ratio.
func EmpiricalR(low, high PIATSource, n int) (float64, error) {
	if n < 2 {
		return 0, errors.New("adversary: need n >= 2")
	}
	var ml, mh stats.Moments
	buf := make([]float64, chunkLen(n))
	for _, s := range []struct {
		src PIATSource
		m   *stats.Moments
	}{{low, &ml}, {high, &mh}} {
		for done := 0; done < n; {
			k := min(len(buf), n-done)
			fillPIATs(s.src, buf[:k])
			s.m.AddAll(buf[:k])
			done += k
		}
	}
	vl, vh := ml.Variance(), mh.Variance()
	if !(vl > 0) {
		return 0, errors.New("adversary: low-rate stream has zero variance")
	}
	return vh / vl, nil
}
