package bayes

import "math"

// clampLogRatio bounds the evidence a single window may contribute to a
// sequential decision: per window, every class's log-likelihood is
// floored at (best-in-window − clampLogRatio). exp(40) ≈ 2e17, so
// the bound never matters for ordinary observations; it only prevents one
// outlier window — a feature value in the far tail or outside a class's
// finite KDE support, where the log-density is −∞ — from eliminating a
// class irrevocably. This is the standard robustification of Wald's SPRT
// against model misspecification (truncated log-likelihood ratios).
const clampLogRatio = 40.0

// Sequential accumulates per-window evidence into a cumulative
// log-posterior over the classes: the anytime decision rule for
// continuous observation. Where the batch rule classifies each window
// independently, a Sequential treats the consecutive window features
// s_1..s_k of one session as accumulating evidence,
//
//	L_i(k) = log P(ω_i) + Σ_j log f(s_j | ω_i),
//
// and reports the normalized posterior softmax(L). Thresholding the top
// posterior gives SPRT-style anytime detection: the adversary decides as
// soon as confidence is reached instead of waiting out a fixed sample
// budget, which is the natural attack against a continuous padded stream.
//
// A Sequential is not safe for concurrent use; create one per session.
type Sequential struct {
	cls       *Classifier
	logw      []float64 // cumulative log prior + likelihood, max-shifted
	scratch   []float64
	logPriors []float64
	windows   int
}

// NewSequential starts an empty sequential decision for the classifier's
// classes, initialized at the log priors.
func (c *Classifier) NewSequential() *Sequential {
	s := &Sequential{
		cls:       c,
		logw:      make([]float64, len(c.classes)),
		scratch:   make([]float64, len(c.classes)),
		logPriors: make([]float64, len(c.classes)),
	}
	for i, cl := range c.classes {
		s.logPriors[i] = math.Log(cl.Prior)
	}
	s.Reset()
	return s
}

// Reset discards all accumulated evidence, returning to the priors.
func (s *Sequential) Reset() {
	copy(s.logw, s.logPriors)
	s.windows = 0
}

// Observe folds one window's feature value into the cumulative
// log-posterior and returns the *single-window* Bayes decision — the
// class maximizing log P(ω_i) + log f(x|ω_i) for this window alone,
// computed from the same density pass so callers tracking per-window
// accuracy alongside the sequential rule pay no second evaluation.
//
// A value with zero density under every class carries no information: it
// leaves the posterior unchanged (matching the batch rule's prior
// fallback) and its window decision falls back to class 0, like
// Classify. A value with zero density under some classes only is clamped
// per clampLogRatio so no class is eliminated beyond recovery by a
// single window.
func (s *Sequential) Observe(x float64) (window int) {
	s.windows++
	lds := s.scratch
	best := math.Inf(-1)
	bestScore := math.Inf(-1)
	for i, cl := range s.cls.classes {
		var ld float64
		if l, ok := cl.Density.(LogDensity); ok {
			ld = l.LogPDF(x)
		} else {
			ld = math.Log(cl.Density.PDF(x))
		}
		lds[i] = ld
		if ld > best {
			best = ld
		}
		// The raw (unclamped) likelihoods decide this window in
		// isolation; ties break toward the lowest index.
		if score := s.logPriors[i] + ld; score > bestScore {
			window, bestScore = i, score
		}
	}
	if math.IsInf(best, -1) {
		return 0 // outside every class's support: no information
	}
	floor := best - clampLogRatio
	shift := math.Inf(-1)
	for i := range lds {
		if lds[i] < floor {
			lds[i] = floor
		}
		s.logw[i] += lds[i]
		if s.logw[i] > shift {
			shift = s.logw[i]
		}
	}
	// Max-shift so the accumulator stays bounded over arbitrarily long
	// sessions; a common shift cancels in the softmax.
	for i := range s.logw {
		s.logw[i] -= shift
	}
	return window
}

// Windows returns how many windows have been observed since the last
// Reset.
func (s *Sequential) Windows() int { return s.windows }

// Best returns the current maximum-posterior class and its posterior
// probability. Ties break toward the lowest index, like Classify.
func (s *Sequential) Best() (class int, posterior float64) {
	best, bestLW := 0, math.Inf(-1)
	for i, lw := range s.logw {
		if lw > bestLW {
			best, bestLW = i, lw
		}
	}
	return best, math.Exp(bestLW - logSumExp(s.logw))
}

// Decided reports whether the accumulated posterior has reached the
// confidence threshold (e.g. 0.99), and for which class. With m classes
// the posterior starts at the prior, so thresholds at or below the
// largest prior decide immediately on zero evidence — callers should pick
// confidence above max_i P(ω_i).
func (s *Sequential) Decided(confidence float64) (class int, ok bool) {
	class, p := s.Best()
	return class, p >= confidence
}
