// Package analytic implements the paper's closed-form detection-rate
// theory (§4): Theorems 1-3 giving the adversary's detection rate for the
// sample-mean, sample-variance and sample-entropy features as functions of
// the PIAT variance ratio r = σ_h²/σ_l² (eq. 16) and the sample size n,
// the n(p) sample-size curves of Fig. 5(b), and the design-guideline
// inversions (pick σ_T to meet a target detection rate).
//
// Theorem 1's printed approximation (eq. 18) appears OCR-garbled in the
// available text (it does not satisfy the paper's own v(r=1) = 0.5
// property); DetectionRateMean therefore evaluates the exact Bayes
// detection rate for the paper's model — two equal-mean normals with
// variance ratio r — which satisfies every property the paper states
// (independent of n, v(1) = 0.5, increasing in r). The printed form is
// kept as DetectionRateMeanPaper for reference.
//
// Everything here is a pure function of its arguments — no randomness,
// no package state — evaluated with internal/dist's deterministic
// quadrature and root bracketing, so theory curves are reproducible to
// the last bit and safe to call from any number of workers.
package analytic

import (
	"errors"
	"math"

	"linkpad/internal/dist"
)

// smallT switches the C_Y/C_H evaluation to series expansions near r = 1,
// where the direct formulas suffer catastrophic cancellation.
const smallT = 1e-6

// validateR normalizes a variance ratio: it must be positive and finite,
// and by the symmetry of the two-class problem r and 1/r give identical
// detection rates, so ratios below one are inverted.
func validateR(r float64) (float64, error) {
	if !(r > 0) || math.IsInf(r, 0) || math.IsNaN(r) {
		return 0, errors.New("analytic: variance ratio must be positive and finite")
	}
	if r < 1 {
		r = 1 / r
	}
	return r, nil
}

// DetectionRateMean returns the detection rate when the adversary uses the
// sample mean (Theorem 1). For the paper's model — X̄ conditioned on each
// class is normal with equal means and variance ratio r — the Bayes rate
// has the exact closed form
//
//	v = 1/2 + Φ(z) − Φ(z/√r),  z = sqrt(r·ln r / (r−1))
//
// which is independent of the sample size n (both class variances scale by
// 1/n, leaving r unchanged): the paper's observation (1).
func DetectionRateMean(r float64) (float64, error) {
	r, err := validateR(r)
	if err != nil {
		return 0, err
	}
	t := r - 1
	if t < 1e-8 {
		// v → 1/2 + φ(1)·t/2 as r → 1.
		phi1 := math.Exp(-0.5) / math.Sqrt(2*math.Pi)
		return 0.5 + phi1*t/2, nil
	}
	z := math.Sqrt(r * math.Log(r) / t)
	return 0.5 + dist.StdPhi(z) - dist.StdPhi(z/math.Sqrt(r)), nil
}

// DetectionRateMeanPaper evaluates eq. 18 exactly as printed in the
// available text: v ≈ 1 − 1/(√2·(1/√r + √r)). Note it yields ≈0.646 at
// r = 1 instead of the 0.5 the paper's own discussion requires; see the
// package comment.
func DetectionRateMeanPaper(r float64) (float64, error) {
	r, err := validateR(r)
	if err != nil {
		return 0, err
	}
	return 1 - 1/(math.Sqrt2*(1/math.Sqrt(r)+math.Sqrt(r))), nil
}

// CY returns the Theorem 2 constant (eq. 21):
//
//	C_Y = 1/(2(1 − ln r/(r−1))²) + 1/(2(r·ln r/(r−1) − 1)²)
//
// C_Y → ∞ as r → 1 (no leak) and → 1/2 as r → ∞.
func CY(r float64) (float64, error) {
	r, err := validateR(r)
	if err != nil {
		return 0, err
	}
	t := r - 1
	if t == 0 {
		return math.Inf(1), nil
	}
	var a, b float64 // the two squared denominators' roots
	if t < smallT {
		// 1 − ln r/(r−1) = t/2 − t²/3 + O(t³)
		// r·ln r/(r−1) − 1 = t/2 − t²/6 + O(t³)
		a = t/2 - t*t/3
		b = t/2 - t*t/6
	} else {
		lr := math.Log1p(t)
		a = 1 - lr/t
		b = (1+t)*lr/t - 1
	}
	return 1/(2*a*a) + 1/(2*b*b), nil
}

// CH returns the Theorem 3 constant (eq. 23):
//
//	C_H = 1/(2·ln²(r·ln r/(r−1))) + 1/(2·ln²((r−1)/ln r))
//
// with the same limits as C_Y.
func CH(r float64) (float64, error) {
	r, err := validateR(r)
	if err != nil {
		return 0, err
	}
	t := r - 1
	if t == 0 {
		return math.Inf(1), nil
	}
	var la, lb float64
	if t < smallT {
		// ln(r·ln r/(r−1)) = t/2 − 7t²/24 + O(t³)
		// ln((r−1)/ln r)   = t/2 − 5t²/24 + O(t³)
		la = t/2 - 7*t*t/24
		lb = t/2 - 5*t*t/24
	} else {
		lr := math.Log1p(t)
		la = math.Log((1 + t) * lr / t)
		lb = math.Log(t / lr)
	}
	return 1/(2*la*la) + 1/(2*lb*lb), nil
}

// DetectionRateVariance returns Theorem 2's estimate for the
// sample-variance feature at sample size n:
//
//	v_Y ≈ max(1 − C_Y/(n−1), 0.5)
func DetectionRateVariance(r float64, n int) (float64, error) {
	if n < 2 {
		return 0, errors.New("analytic: sample size must be at least 2")
	}
	c, err := CY(r)
	if err != nil {
		return 0, err
	}
	return math.Max(1-c/float64(n-1), 0.5), nil
}

// DetectionRateEntropy returns Theorem 3's estimate for the
// sample-entropy feature at sample size n:
//
//	v_H ≈ max(1 − C_H/n, 0.5)
func DetectionRateEntropy(r float64, n int) (float64, error) {
	if n < 1 {
		return 0, errors.New("analytic: sample size must be at least 1")
	}
	c, err := CH(r)
	if err != nil {
		return 0, err
	}
	return math.Max(1-c/float64(n), 0.5), nil
}

// SampleSizeVariance returns n(p): the sample size at which the
// sample-variance feature reaches detection rate p ∈ (0.5, 1)
// (the Fig. 5(b) curve). It returns +Inf when r = 1.
func SampleSizeVariance(r, p float64) (float64, error) {
	if !(p > 0.5 && p < 1) {
		return 0, errors.New("analytic: target detection rate must be in (0.5, 1)")
	}
	c, err := CY(r)
	if err != nil {
		return 0, err
	}
	return c/(1-p) + 1, nil
}

// SampleSizeEntropy returns n(p) for the sample-entropy feature.
func SampleSizeEntropy(r, p float64) (float64, error) {
	if !(p > 0.5 && p < 1) {
		return 0, errors.New("analytic: target detection rate must be in (0.5, 1)")
	}
	c, err := CH(r)
	if err != nil {
		return 0, err
	}
	return c / (1 - p), nil
}

// RWithNetwork extends a gateway-level variance ratio with network
// queueing noise: each of the two classes gains the same additional PIAT
// variance 2·Σ Var(W_hop) (waiting times enter consecutive PIATs as a
// difference), so
//
//	r = (σ_h² + σ_net²) / (σ_l² + σ_net²)
//
// matching the paper's eqs. 16/29: r decreases toward 1 as σ_net² grows.
func RWithNetwork(gwVarLow, gwVarHigh float64, hopWaitVars []float64) (float64, error) {
	if !(gwVarLow > 0) || !(gwVarHigh > 0) {
		return 0, errors.New("analytic: class variances must be positive")
	}
	var net float64
	for _, v := range hopWaitVars {
		if v < 0 {
			return 0, errors.New("analytic: negative hop waiting variance")
		}
		net += 2 * v
	}
	return (gwVarHigh + net) / (gwVarLow + net), nil
}

// Feature identifies the adversary's statistic in API calls and reports.
type Feature int

// The three feature statistics studied by the paper, plus the
// interquartile-range extension (a robust second-order statistic with no
// closed-form theorem; evaluated empirically only).
const (
	FeatureMean Feature = iota
	FeatureVariance
	FeatureEntropy
	FeatureIQR
)

// String returns the feature's report name.
func (f Feature) String() string {
	switch f {
	case FeatureMean:
		return "mean"
	case FeatureVariance:
		return "variance"
	case FeatureEntropy:
		return "entropy"
	case FeatureIQR:
		return "iqr"
	default:
		return "unknown"
	}
}

// HasTheorem reports whether a closed-form detection-rate formula exists
// for the feature (Theorems 1-3 cover mean, variance and entropy).
func HasTheorem(f Feature) bool {
	switch f {
	case FeatureMean, FeatureVariance, FeatureEntropy:
		return true
	default:
		return false
	}
}

// DetectionRate dispatches to the per-feature theorem. Features without a
// closed form (see HasTheorem) return an error.
func DetectionRate(f Feature, r float64, n int) (float64, error) {
	switch f {
	case FeatureMean:
		return DetectionRateMean(r)
	case FeatureVariance:
		return DetectionRateVariance(r, n)
	case FeatureEntropy:
		return DetectionRateEntropy(r, n)
	case FeatureIQR:
		return 0, errors.New("analytic: no closed-form theorem for the IQR feature")
	default:
		return 0, errors.New("analytic: unknown feature")
	}
}

// RequiredRatio inverts Theorem 2/3: the variance ratio at which feature f
// reaches detection rate target at sample size n. If even r → ∞ cannot
// reach the target (possible for variance at tiny n), it returns an error.
// The mean feature does not depend on n; it is inverted directly.
func RequiredRatio(f Feature, target float64, n int) (float64, error) {
	if !(target > 0.5 && target < 1) {
		return 0, errors.New("analytic: target detection rate must be in (0.5, 1)")
	}
	eval := func(r float64) (float64, error) { return DetectionRate(f, r, n) }
	// Detection rate is non-decreasing in r for every feature; bracket and
	// bisect on log r.
	const rMax = 1e12
	vMax, err := eval(rMax)
	if err != nil {
		return 0, err
	}
	if vMax < target {
		return 0, errors.New("analytic: target detection rate unreachable at this sample size")
	}
	root, err := dist.FindRoot(func(logr float64) float64 {
		v, evalErr := eval(math.Exp(logr))
		if evalErr != nil {
			return math.NaN()
		}
		return v - target
	}, 1e-12, math.Log(rMax), 1e-12)
	if err != nil {
		return 0, err
	}
	return math.Exp(root), nil
}

// SigmaTForTarget solves the core design guideline (paper §4.3 obs. 2 and
// §6): the smallest VIT interval standard deviation σ_T that caps the
// adversary's detection rate at targetV when they use feature f with
// sample size n, given the gateway's per-class PIAT variances at σ_T = 0
// (CIT). It returns 0 when CIT already meets the target.
//
// Adding σ_T² to both class variances moves the ratio to
// r(σ_T) = (σ_h² + σ_T²)/(σ_l² + σ_T²), so
//
//	σ_T² = (σ_h² − r·σ_l²) / (r − 1)
//
// for the required ratio r.
func SigmaTForTarget(f Feature, targetV float64, n int, citVarLow, citVarHigh float64) (float64, error) {
	if !(targetV > 0.5 && targetV < 1) {
		return 0, errors.New("analytic: target detection rate must be in (0.5, 1)")
	}
	if !(citVarLow > 0) || citVarHigh < citVarLow {
		return 0, errors.New("analytic: need 0 < citVarLow <= citVarHigh")
	}
	rCIT := citVarHigh / citVarLow
	vCIT, err := DetectionRate(f, rCIT, n)
	if err != nil {
		return 0, err
	}
	if vCIT <= targetV {
		return 0, nil // CIT is already safe at this sample size
	}
	rNeed, err := RequiredRatio(f, targetV, n)
	if err != nil {
		return 0, err
	}
	if rNeed >= rCIT {
		return 0, nil
	}
	if rNeed <= 1 {
		return 0, errors.New("analytic: target requires r = 1, unreachable with finite σ_T")
	}
	sigmaT2 := (citVarHigh - rNeed*citVarLow) / (rNeed - 1)
	if sigmaT2 < 0 {
		sigmaT2 = 0
	}
	return math.Sqrt(sigmaT2), nil
}
