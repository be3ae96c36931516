// Package adversary implements the paper's attacker (§3.3): a passive
// observer who taps the padded stream, collects samples of n packet
// inter-arrival times, reduces each sample to one feature statistic
// (sample mean, sample variance, or sample entropy), trains per-class
// feature densities off-line with Gaussian KDE, and classifies run-time
// samples with the Bayes rule. Detection rates are estimated by Monte
// Carlo over fresh evaluation windows.
//
// Every attack takes the same path: MultiPipeline reduces windows,
// SessionFeatureMatrix (or its one-window-per-replica form,
// FeatureMatrix) collects a class's [extractor][window] matrix, Fit
// trains one classifier per extractor, and the run-time windows are
// scored with ClassifyBatch.
//
// Determinism contract: extractors are pure reductions — all randomness
// lives in the PIAT sources the caller supplies — and the parallel
// matrix drivers assign each replica or session its own pre-seeded
// source, so matrices are byte-identical at any worker count.
//
// Allocation discipline: the hot path is allocation-free in steady
// state. MultiPipeline reduces one simulated window through every
// extractor in a single streaming pass (Welford moments, a reusable
// dense histogram, quickselect quantiles) and is reused per worker.
package adversary

import (
	"errors"

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

// Fit runs the off-line phase on extracted training features: mats[c]
// is class c's [extractor][window] matrix, as SessionFeatureMatrix
// returns it, and Fit returns one classifier per extractor with equal
// priors. The class-conditional densities are the paper's Gaussian KDE,
// or a parametric normal fit when gaussian is set (ablation).
func Fit(labels []string, mats [][][]float64, gaussian bool) ([]*bayes.Classifier, error) {
	if len(mats) != len(labels) || len(mats) < 2 {
		return nil, errors.New("adversary: need one feature matrix per class and at least two classes")
	}
	for _, mat := range mats {
		if len(mat) != len(mats[0]) {
			return nil, errors.New("adversary: classes have different extractor counts")
		}
	}
	train := bayes.TrainKDE
	if gaussian {
		train = bayes.TrainGaussian
	}
	cls := make([]*bayes.Classifier, len(mats[0]))
	for fi := range cls {
		perClass := make([][]float64, len(mats))
		for c, mat := range mats {
			perClass[c] = mat[fi]
		}
		var err error
		if cls[fi], err = train(labels, perClass, nil); err != nil {
			return nil, err
		}
	}
	return cls, nil
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
