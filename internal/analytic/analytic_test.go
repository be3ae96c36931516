package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"linkpad/internal/bayes"
	"linkpad/internal/dist"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestValidateRErrors(t *testing.T) {
	for _, r := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := DetectionRateMean(r); err == nil {
			t.Errorf("DetectionRateMean(%v) should fail", r)
		}
		if _, err := CY(r); err == nil {
			t.Errorf("CY(%v) should fail", r)
		}
		if _, err := CH(r); err == nil {
			t.Errorf("CH(%v) should fail", r)
		}
	}
}

// Paper observation: every feature's detection rate is exactly 0.5 at
// r = 1 (random guessing bound for two equiprobable classes).
func TestRandomGuessingAtREqualOne(t *testing.T) {
	v, err := DetectionRateMean(1)
	if err != nil || !almostEq(v, 0.5, 1e-12) {
		t.Errorf("mean v(1) = %v, err %v", v, err)
	}
	v, err = DetectionRateVariance(1, 1000)
	if err != nil || v != 0.5 {
		t.Errorf("variance v(1) = %v, err %v", v, err)
	}
	v, err = DetectionRateEntropy(1, 1000)
	if err != nil || v != 0.5 {
		t.Errorf("entropy v(1) = %v, err %v", v, err)
	}
}

// The exact mean formula must agree with direct numeric Bayes integration
// over the two-Gaussian model it is derived from.
func TestMeanFormulaAgreesWithNumericBayes(t *testing.T) {
	for _, r := range []float64{1.2, 1.9, 3, 10, 100} {
		c, err := bayes.New(
			bayes.Class{Label: "l", Prior: 1, Density: dist.Normal{Mu: 0, Sigma: 1}},
			bayes.Class{Label: "h", Prior: 1, Density: dist.Normal{Mu: 0, Sigma: math.Sqrt(r)}},
		)
		if err != nil {
			t.Fatal(err)
		}
		span := 12 * math.Sqrt(r)
		want, err := c.DetectionRate(-span, span, 40000)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DetectionRateMean(r)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got, want, 1e-5) {
			t.Errorf("r=%v: formula %v vs numeric %v", r, got, want)
		}
	}
}

// Mean detection is independent of n by construction and symmetric in
// r <-> 1/r.
func TestMeanSymmetry(t *testing.T) {
	a, err := DetectionRateMean(2.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DetectionRateMean(1 / 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(a, b, 1e-12) {
		t.Errorf("v(r) = %v != v(1/r) = %v", a, b)
	}
}

func TestMeanPaperFormulaAsPrinted(t *testing.T) {
	// As printed, eq. 18 gives 1 - 1/(2*sqrt(2)) at r=1 — documented
	// discrepancy with the paper's own v(1)=0.5 observation.
	v, err := DetectionRateMeanPaper(1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(v, 1-1/(2*math.Sqrt2), 1e-12) {
		t.Errorf("printed formula at r=1: %v", v)
	}
	// It is at least monotone increasing in r.
	prev := v
	for _, r := range []float64{1.5, 2, 5, 20} {
		vr, err := DetectionRateMeanPaper(r)
		if err != nil {
			t.Fatal(err)
		}
		if vr <= prev {
			t.Errorf("printed formula not increasing at r=%v", r)
		}
		prev = vr
	}
}

// CY/CH limits: r→1 gives +Inf (no leak); r→∞ gives 1/2 and 0.
func TestConstantLimits(t *testing.T) {
	cy, err := CY(1)
	if err != nil || !math.IsInf(cy, 1) {
		t.Errorf("CY(1) = %v", cy)
	}
	ch, err := CH(1)
	if err != nil || !math.IsInf(ch, 1) {
		t.Errorf("CH(1) = %v", ch)
	}
	// Convergence toward the r→∞ limits is logarithmic; check the trend
	// and proximity rather than tight equality.
	cy, err = CY(1e9)
	if err != nil || !almostEq(cy, 0.5, 2e-3) {
		t.Errorf("CY(1e9) = %v, want → 0.5", cy)
	}
	ch100, err := CH(100)
	if err != nil {
		t.Fatal(err)
	}
	ch, err = CH(1e9)
	if err != nil || ch > 0.1 || ch >= ch100 {
		t.Errorf("CH(1e9) = %v, want small and below CH(100)=%v", ch, ch100)
	}
}

// Spot values computed independently (see DESIGN.md calibration): at
// r = 1.9, C_Y ≈ 10.05 and C_H ≈ 9.79, giving ~0.99 detection at n = 1000.
func TestCalibrationSpotValues(t *testing.T) {
	cy, err := CY(1.9)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(cy, 10.05, 0.1) {
		t.Errorf("CY(1.9) = %v, want ~10.05", cy)
	}
	ch, err := CH(1.9)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(ch, 9.79, 0.1) {
		t.Errorf("CH(1.9) = %v, want ~9.79", ch)
	}
	v, err := DetectionRateVariance(1.9, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if v < 0.985 || v > 0.995 {
		t.Errorf("vY(1.9, 1000) = %v, want ~0.99", v)
	}
}

// Series/direct crossover continuity at the smallT boundary.
func TestSeriesContinuity(t *testing.T) {
	for _, eps := range []float64{0.5e-6, 0.99e-6, 1.01e-6, 2e-6} {
		r := 1 + eps
		cy, err := CY(r)
		if err != nil {
			t.Fatal(err)
		}
		// Both branches approximate 4/t² to within O(t).
		if rel := math.Abs(cy-4/(eps*eps)) / (4 / (eps * eps)); rel > 1e-5 {
			t.Errorf("CY(1+%v) = %v deviates from 4/t² by %v", eps, cy, rel)
		}
		ch, err := CH(r)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(ch-4/(eps*eps)) / (4 / (eps * eps)); rel > 1e-5 {
			t.Errorf("CH(1+%v) = %v deviates from 4/t² by %v", eps, ch, rel)
		}
	}
}

// The paper's monotonicity observations: detection increases with r for
// every feature and with n for variance/entropy.
func TestMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		// r1 < r2 in (1, 100]; n1 < n2 in [10, 10000]
		s := float64(seed%997) / 997
		if s < 0 {
			s = -s
		}
		r1 := 1 + 99*s*0.3
		r2 := r1 + 1 + 10*s
		n1 := 10 + int(s*1000)
		n2 := n1 * 10
		for _, feat := range []Feature{FeatureMean, FeatureVariance, FeatureEntropy} {
			v1, err := DetectionRate(feat, r1, n1)
			if err != nil {
				return false
			}
			v2, err := DetectionRate(feat, r2, n1)
			if err != nil {
				return false
			}
			if v2 < v1-1e-12 {
				return false
			}
			w1, err := DetectionRate(feat, r2, n1)
			if err != nil {
				return false
			}
			w2, err := DetectionRate(feat, r2, n2)
			if err != nil {
				return false
			}
			if w2 < w1-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Inversion consistency: v(r, n(p)) == p.
func TestSampleSizeInversion(t *testing.T) {
	for _, r := range []float64{1.2, 1.9, 4} {
		for _, p := range []float64{0.8, 0.9, 0.99} {
			nv, err := SampleSizeVariance(r, p)
			if err != nil {
				t.Fatal(err)
			}
			v, err := DetectionRateVariance(r, int(math.Ceil(nv)))
			if err != nil {
				t.Fatal(err)
			}
			if v < p-0.01 {
				t.Errorf("variance r=%v p=%v: v(n(p)) = %v", r, p, v)
			}
			ne, err := SampleSizeEntropy(r, p)
			if err != nil {
				t.Fatal(err)
			}
			v, err = DetectionRateEntropy(r, int(math.Ceil(ne)))
			if err != nil {
				t.Fatal(err)
			}
			if v < p-0.01 {
				t.Errorf("entropy r=%v p=%v: v(n(p)) = %v", r, p, v)
			}
		}
	}
}

// The paper's headline Fig. 5(b) claim: with σ_T = 1 ms and µs-scale
// gateway jitter, n(99%) exceeds 10^11.
func TestFig5bScale(t *testing.T) {
	// Gateway-level class variances from the DESIGN.md calibration:
	// σ_l² = 25.8 µs², σ_h² = 49 µs² (in s²: 2.58e-11, 4.9e-11).
	sigmaT := 1e-3
	r := (sigmaT*sigmaT + 4.9e-11) / (sigmaT*sigmaT + 2.58e-11)
	n, err := SampleSizeVariance(r, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1e11 {
		t.Errorf("n(99%%) at σ_T=1ms = %v, want > 1e11", n)
	}
}

func TestSampleSizeErrors(t *testing.T) {
	if _, err := SampleSizeVariance(2, 0.5); err == nil {
		t.Error("p=0.5 should fail")
	}
	if _, err := SampleSizeEntropy(2, 1); err == nil {
		t.Error("p=1 should fail")
	}
	n, err := SampleSizeVariance(1, 0.9)
	if err != nil || !math.IsInf(n, 1) {
		t.Errorf("n(p) at r=1 = %v, want +Inf", n)
	}
}

func TestRHelpers(t *testing.T) {
	// Without hops, r is the plain gateway variance ratio (eq. 16).
	r, err := RWithNetwork(2.58e-11, 4.9e-11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 1.8992, 0.001) {
		t.Errorf("r = %v", r)
	}
	if _, err := RWithNetwork(0, 1, nil); err == nil {
		t.Error("zero variance should fail")
	}
	// Network noise drives r toward 1.
	r2, err := RWithNetwork(2.58e-11, 4.9e-11, []float64{4.8e-9})
	if err != nil {
		t.Fatal(err)
	}
	if r2 >= r || r2 < 1 {
		t.Errorf("network should shrink r toward 1: %v -> %v", r, r2)
	}
	if _, err := RWithNetwork(1, 2, []float64{-1}); err == nil {
		t.Error("negative hop variance should fail")
	}
}

func TestFeatureString(t *testing.T) {
	if FeatureMean.String() != "mean" || FeatureVariance.String() != "variance" ||
		FeatureEntropy.String() != "entropy" || FeatureIQR.String() != "iqr" ||
		Feature(99).String() != "unknown" {
		t.Error("feature names broken")
	}
}

func TestHasTheorem(t *testing.T) {
	for _, f := range []Feature{FeatureMean, FeatureVariance, FeatureEntropy} {
		if !HasTheorem(f) {
			t.Errorf("%v should have a theorem", f)
		}
	}
	if HasTheorem(FeatureIQR) || HasTheorem(Feature(99)) {
		t.Error("IQR/unknown should have no theorem")
	}
	if _, err := DetectionRate(FeatureIQR, 2, 100); err == nil {
		t.Error("IQR dispatch should error")
	}
}

func TestDetectionRateDispatchErrors(t *testing.T) {
	if _, err := DetectionRate(Feature(99), 2, 100); err == nil {
		t.Error("unknown feature should fail")
	}
	if _, err := DetectionRateVariance(2, 1); err == nil {
		t.Error("n=1 should fail for variance")
	}
	if _, err := DetectionRateEntropy(2, 0); err == nil {
		t.Error("n=0 should fail for entropy")
	}
}

func TestRequiredRatioRoundTrip(t *testing.T) {
	for _, feat := range []Feature{FeatureVariance, FeatureEntropy} {
		for _, target := range []float64{0.7, 0.9, 0.99} {
			r, err := RequiredRatio(feat, target, 1000)
			if err != nil {
				t.Fatal(err)
			}
			v, err := DetectionRate(feat, r, 1000)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEq(v, target, 1e-6) {
				t.Errorf("%v target %v: round trip gives %v (r=%v)", feat, target, v, r)
			}
		}
	}
}

func TestRequiredRatioUnreachable(t *testing.T) {
	// Variance feature at n=2: v <= 1 - C_Y/(1) and C_Y >= 1/2, so 0.99
	// was reachable? C_Y -> 0.5 as r -> inf, so max v = 0.5 at n=2... any
	// target above 0.5 is unreachable.
	if _, err := RequiredRatio(FeatureVariance, 0.9, 2); err == nil {
		t.Error("variance at n=2 cannot reach 0.9")
	}
	if _, err := RequiredRatio(FeatureVariance, 0.4, 100); err == nil {
		t.Error("target below 0.5 should be rejected")
	}
}

// Design guideline round trip: the solved σ_T caps detection at the
// target.
func TestSigmaTForTarget(t *testing.T) {
	const varL, varH = 2.58e-11, 4.9e-11 // calibrated CIT class variances
	for _, tc := range []struct {
		feat   Feature
		target float64
		n      int
	}{
		{FeatureVariance, 0.6, 2000},
		{FeatureEntropy, 0.6, 2000},
		{FeatureEntropy, 0.55, 10000},
	} {
		sigmaT, err := SigmaTForTarget(tc.feat, tc.target, tc.n, varL, varH)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if sigmaT <= 0 {
			t.Fatalf("%+v: expected positive σ_T, CIT detection should exceed target", tc)
		}
		rAchieved := (varH + sigmaT*sigmaT) / (varL + sigmaT*sigmaT)
		v, err := DetectionRate(tc.feat, rAchieved, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(v, tc.target, 0.01) {
			t.Errorf("%+v: solved σ_T=%v achieves v=%v", tc, sigmaT, v)
		}
	}
}

func TestSigmaTForTargetCITSufficient(t *testing.T) {
	// Tiny sample size: CIT detection via entropy at n=10 with r=1.9 is
	// 1 - 9.79/10 ≈ 0.02 → clamped 0.5; target 0.8 already met by CIT.
	sigmaT, err := SigmaTForTarget(FeatureEntropy, 0.8, 10, 2.58e-11, 4.9e-11)
	if err != nil {
		t.Fatal(err)
	}
	if sigmaT != 0 {
		t.Errorf("σ_T = %v, want 0 (CIT sufficient)", sigmaT)
	}
}

func TestSigmaTForTargetErrors(t *testing.T) {
	if _, err := SigmaTForTarget(FeatureEntropy, 1.0, 100, 1, 2); err == nil {
		t.Error("target 1.0 should fail")
	}
	if _, err := SigmaTForTarget(FeatureEntropy, 0.9, 100, 0, 2); err == nil {
		t.Error("zero variance should fail")
	}
	if _, err := SigmaTForTarget(FeatureEntropy, 0.9, 100, 2, 1); err == nil {
		t.Error("varHigh < varLow should fail")
	}
}

func BenchmarkDetectionRateEntropy(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		v, err := DetectionRateEntropy(1.9, 1000)
		if err != nil {
			b.Fatal(err)
		}
		sink += v
	}
	_ = sink
}

func BenchmarkSigmaTForTarget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := SigmaTForTarget(FeatureEntropy, 0.6, 2000, 2.58e-11, 4.9e-11); err != nil {
			b.Fatal(err)
		}
	}
}
