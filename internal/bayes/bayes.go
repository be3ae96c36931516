// Package bayes implements the adversary's decision strategy (paper §3.3):
// Bayes classification of a 1-D feature statistic over m payload-rate
// classes, with class-conditional densities estimated during off-line
// training (Gaussian KDE or parametric Gaussian fit) and a-priori class
// probabilities. It also evaluates the Bayes error/detection-rate
// integrals (paper eqs. 5-7) numerically.
//
// Determinism contract: training and classification are pure functions
// of their inputs (ties in the arg-max break toward the lower class
// index; entropy terms sum in class order), so classifiers trained from
// the same corpus produce byte-identical decisions everywhere.
//
// Allocation discipline: ClassifyBatch and LogPosteriorsInto score
// evaluation sets against precomputed per-class density grids, writing
// into caller-owned buffers — the evaluation hot loop allocates nothing.
package bayes

import (
	"errors"
	"fmt"
	"math"

	"linkpad/internal/dist"
	"linkpad/internal/kde"
	"linkpad/internal/stats"
)

// Density is a one-dimensional probability density. LogPDF is its log,
// evaluated directly so the log-posterior paths stay finite far in the
// tails, where PDF underflows to zero.
type Density interface {
	PDF(x float64) float64
	LogPDF(x float64) float64
}

// Class is one hypothesis: a payload traffic rate with its prior
// probability and estimated feature density.
type Class struct {
	// Label names the class, e.g. "10pps".
	Label string
	// Prior is the a-priori probability P(ω_i).
	Prior float64
	// Density is the class-conditional feature density f(s|ω_i).
	Density Density
}

// Classifier applies the Bayes decision rule (paper eq. 2): pick the class
// maximizing f(s|ω_i) * P(ω_i).
type Classifier struct {
	classes []Class
}

// New builds a classifier from at least two classes. Priors must be
// positive; they are normalized to sum to one.
func New(classes ...Class) (*Classifier, error) {
	if len(classes) < 2 {
		return nil, errors.New("bayes: need at least two classes")
	}
	var total float64
	for i, c := range classes {
		if c.Density == nil {
			return nil, fmt.Errorf("bayes: class %d (%q) has nil density", i, c.Label)
		}
		if !(c.Prior > 0) {
			return nil, fmt.Errorf("bayes: class %d (%q) has non-positive prior", i, c.Label)
		}
		total += c.Prior
	}
	cs := make([]Class, len(classes))
	copy(cs, classes)
	for i := range cs {
		cs[i].Prior /= total
	}
	return &Classifier{classes: cs}, nil
}

// NumClasses returns the number of hypotheses.
func (c *Classifier) NumClasses() int { return len(c.classes) }

// Label returns the label of class i.
func (c *Classifier) Label(i int) string { return c.classes[i].Label }

// Prior returns the normalized prior of class i.
func (c *Classifier) Prior(i int) float64 { return c.classes[i].Prior }

// Classify returns the index of the class maximizing P(ω_i) f(s|ω_i).
// Ties break toward the lowest index, matching the paper's ">=" in eq. 1.
func (c *Classifier) Classify(s float64) int {
	best, bestScore := 0, math.Inf(-1)
	for i, cl := range c.classes {
		score := cl.Prior * cl.Density.PDF(s)
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// DetectionRate numerically evaluates the Bayes detection rate
// (paper eq. 7 generalized to m classes):
//
//	v = ∫ max_i P(ω_i) f(s|ω_i) ds
//
// over [lo, hi] with n integration points. The interval must cover the
// numeric support of all class densities for the result to be meaningful.
func (c *Classifier) DetectionRate(lo, hi float64, n int) (float64, error) {
	f := func(s float64) float64 {
		best := math.Inf(-1)
		for _, cl := range c.classes {
			if v := cl.Prior * cl.Density.PDF(s); v > best {
				best = v
			}
		}
		return best
	}
	return dist.Integrate(f, lo, hi, n)
}

// TrainKDE performs the paper's off-line training: one Gaussian KDE per
// class fitted to that class's feature samples, with the given priors
// (nil means equal priors). labels[i], features[i] and priors[i] describe
// class i.
//
// The class densities are precomputed log-density grids (kde.Grid) so
// run-time classification costs O(1) per density query instead of a
// kernel sum.
func TrainKDE(labels []string, features [][]float64, priors []float64) (*Classifier, error) {
	return train(labels, features, priors, func(xs []float64) (Density, error) {
		k, err := kde.New(xs)
		if err != nil {
			return nil, err
		}
		return k.Grid(), nil
	})
}

// TrainGaussian fits a parametric normal density per class instead of a
// KDE — the ablation baseline for the paper's KDE choice.
func TrainGaussian(labels []string, features [][]float64, priors []float64) (*Classifier, error) {
	return train(labels, features, priors, func(xs []float64) (Density, error) {
		if len(xs) < 2 {
			return nil, errors.New("need at least two samples")
		}
		sd := stats.StdDev(xs)
		if !(sd > 0) {
			return nil, errors.New("zero feature spread")
		}
		return dist.Normal{Mu: stats.Mean(xs), Sigma: sd}, nil
	})
}

// train builds a classifier from one density per class, fit to that
// class's feature samples, with the given priors (nil means equal
// priors).
func train(labels []string, features [][]float64, priors []float64, fit func(xs []float64) (Density, error)) (*Classifier, error) {
	if len(labels) != len(features) {
		return nil, errors.New("bayes: labels/features length mismatch")
	}
	if priors != nil && len(priors) != len(labels) {
		return nil, errors.New("bayes: labels/priors length mismatch")
	}
	classes := make([]Class, len(labels))
	for i := range labels {
		d, err := fit(features[i])
		if err != nil {
			return nil, fmt.Errorf("bayes: class %q: %w", labels[i], err)
		}
		p := 1.0 / float64(len(labels))
		if priors != nil {
			p = priors[i]
		}
		classes[i] = Class{Label: labels[i], Prior: p, Density: d}
	}
	return New(classes...)
}
