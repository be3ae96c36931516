package bayes

import (
	"math"
	"testing"
	"testing/quick"

	"linkpad/internal/dist"
	"linkpad/internal/xrand"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Posteriors is the linear-space reference for LogPosteriorsInto: P(ω_i | s)
// for every class, or the priors when every class density is zero at s.
func (c *Classifier) Posteriors(s float64) []float64 {
	post := make([]float64, len(c.classes))
	var total float64
	for i, cl := range c.classes {
		post[i] = cl.Prior * cl.Density.PDF(s)
		total += post[i]
	}
	if total <= 0 {
		for i, cl := range c.classes {
			post[i] = cl.Prior
		}
		return post
	}
	for i := range post {
		post[i] /= total
	}
	return post
}

// twoClassThreshold solves f(s|ω_0)P(ω_0) = f(s|ω_1)P(ω_1) for the
// decision threshold d (paper eq. 3) inside [lo, hi]: the analytic
// boundary Classify must reproduce.
func twoClassThreshold(t *testing.T, c *Classifier, lo, hi float64) float64 {
	t.Helper()
	if len(c.classes) != 2 {
		t.Fatalf("twoClassThreshold needs two classes, got %d", len(c.classes))
	}
	diff := func(s float64) float64 {
		return c.classes[0].Prior*c.classes[0].Density.PDF(s) -
			c.classes[1].Prior*c.classes[1].Density.PDF(s)
	}
	d, err := dist.FindRoot(diff, lo, hi, (hi-lo)*1e-12)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func twoGaussians(mu0, s0, mu1, s1, p0, p1 float64) *Classifier {
	c, err := New(
		Class{Label: "l", Prior: p0, Density: dist.Normal{Mu: mu0, Sigma: s0}},
		Class{Label: "h", Prior: p1, Density: dist.Normal{Mu: mu1, Sigma: s1}},
	)
	if err != nil {
		panic(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	n := dist.Normal{Sigma: 1}
	if _, err := New(Class{Label: "only", Prior: 1, Density: n}); err == nil {
		t.Error("want error for one class")
	}
	if _, err := New(Class{Prior: 1, Density: n}, Class{Prior: 0, Density: n}); err == nil {
		t.Error("want error for zero prior")
	}
	if _, err := New(Class{Prior: 1, Density: n}, Class{Prior: 1}); err == nil {
		t.Error("want error for nil density")
	}
}

func TestPriorNormalization(t *testing.T) {
	c := twoGaussians(0, 1, 5, 1, 3, 1) // un-normalized 3:1
	if !almostEq(c.Prior(0), 0.75, 1e-12) || !almostEq(c.Prior(1), 0.25, 1e-12) {
		t.Errorf("priors = %v, %v", c.Prior(0), c.Prior(1))
	}
}

func TestClassifySeparated(t *testing.T) {
	c := twoGaussians(0, 1, 10, 1, 1, 1)
	if c.Classify(-1) != 0 || c.Classify(11) != 1 {
		t.Error("clearly separated points misclassified")
	}
	if c.Classify(4.99) != 0 || c.Classify(5.01) != 1 {
		t.Error("threshold should be at the midpoint for equal-variance equal-prior classes")
	}
}

func TestClassifyPriorShift(t *testing.T) {
	// Heavier prior on class 0 moves the threshold toward class 1.
	equal := twoGaussians(0, 1, 4, 1, 1, 1)
	skewed := twoGaussians(0, 1, 4, 1, 9, 1)
	dEq := twoClassThreshold(t, equal, 0, 4)
	dSk := twoClassThreshold(t, skewed, 0, 4)
	if !almostEq(dEq, 2, 1e-9) {
		t.Errorf("equal-prior threshold = %v, want 2", dEq)
	}
	if dSk <= dEq {
		t.Errorf("skewed-prior threshold %v should exceed %v", dSk, dEq)
	}
	// Classify switches class at the analytic threshold.
	for _, tc := range []struct {
		c *Classifier
		d float64
	}{{equal, dEq}, {skewed, dSk}} {
		if tc.c.Classify(tc.d-1e-6) != 0 || tc.c.Classify(tc.d+1e-6) != 1 {
			t.Errorf("Classify does not switch class at the eq. 3 threshold %v", tc.d)
		}
	}
}

func TestPosteriorsSumToOne(t *testing.T) {
	c := twoGaussians(0, 1, 3, 2, 1, 1)
	f := func(s float64) bool {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return true
		}
		p := c.Posteriors(s)
		sum := p[0] + p[1]
		return almostEq(sum, 1, 1e-9) && p[0] >= 0 && p[1] >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPosteriorsZeroDensityFallsBackToPriors(t *testing.T) {
	// KDE densities are numerically zero far outside training data.
	r := xrand.New(1)
	feat := make([][]float64, 2)
	for i := range feat {
		feat[i] = make([]float64, 100)
		for j := range feat[i] {
			feat[i][j] = r.Normal(float64(i), 0.1)
		}
	}
	c, err := TrainKDE([]string{"a", "b"}, feat, []float64{0.7, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	p := c.Posteriors(1e9)
	if !almostEq(p[0], 0.7, 1e-12) || !almostEq(p[1], 0.3, 1e-12) {
		t.Errorf("posteriors far outside support = %v", p)
	}
}

// Exact check: two equal-prior unit-variance Gaussians at distance 2a have
// Bayes detection rate Phi(a).
func TestDetectionRateEqualVariance(t *testing.T) {
	for _, a := range []float64{0.25, 0.5, 1, 2} {
		c := twoGaussians(-a, 1, a, 1, 1, 1)
		v, err := c.DetectionRate(-a-9, a+9, 8000)
		if err != nil {
			t.Fatal(err)
		}
		want := dist.StdPhi(a)
		if !almostEq(v, want, 1e-6) {
			t.Errorf("a=%v: v = %v, want %v", a, v, want)
		}
	}
}

// Identical class densities => detection rate exactly 0.5 (random guessing),
// the paper's lower bound for m=2.
func TestDetectionRateIdenticalClasses(t *testing.T) {
	c := twoGaussians(0, 1, 0, 1, 1, 1)
	v, err := c.DetectionRate(-9, 9, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(v, 0.5, 1e-9) {
		t.Errorf("v = %v, want 0.5", v)
	}
}

// Equal-mean different-variance Gaussians: the paper's sample-statistic
// geometry (Fig. 2). Verify against the closed form
// v = 1/2 + Phi(z) - Phi(z/sqrt(r)), z = sqrt(r ln r/(r-1)).
func TestDetectionRateEqualMeanVarianceRatio(t *testing.T) {
	for _, r := range []float64{1.5, 1.9, 3, 10} {
		c := twoGaussians(0, 1, 0, math.Sqrt(r), 1, 1)
		v, err := c.DetectionRate(-40, 40, 40000)
		if err != nil {
			t.Fatal(err)
		}
		z := math.Sqrt(r * math.Log(r) / (r - 1))
		want := 0.5 + dist.StdPhi(z) - dist.StdPhi(z/math.Sqrt(r))
		if !almostEq(v, want, 1e-5) {
			t.Errorf("r=%v: v = %v, want %v", r, v, want)
		}
	}
}

// The Bayes error is the complement of the detection rate (paper eqs.
// 5-7): Classify's empirical error rate on draws from the class
// densities matches 1 − DetectionRate within a binomial tolerance.
func TestErrorRateComplement(t *testing.T) {
	c := twoGaussians(0, 1, 2, 1, 1, 1)
	v, err := c.DetectionRate(-9, 11, 4000)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(5)
	const n = 20000
	wrong := 0
	for i := 0; i < n; i++ {
		if c.Classify(r.Normal(0, 1)) != 0 {
			wrong++
		}
		if c.Classify(r.Normal(2, 1)) != 1 {
			wrong++
		}
	}
	e := float64(wrong) / (2 * n)
	// Four binomial standard errors at 2n draws.
	if tol := 4 * math.Sqrt((1-v)*v/(2*n)); math.Abs(e-(1-v)) > tol {
		t.Errorf("empirical error %v vs 1 - detection rate %v (tol %v)", e, 1-v, tol)
	}
}

func TestTrainKDEEndToEnd(t *testing.T) {
	r := xrand.New(42)
	mk := func(mu, sigma float64) []float64 {
		xs := make([]float64, 400)
		for i := range xs {
			xs[i] = r.Normal(mu, sigma)
		}
		return xs
	}
	c, err := TrainKDE([]string{"low", "high"}, [][]float64{mk(0, 1), mk(6, 1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh draws classify correctly almost always.
	correct := 0
	for i := 0; i < 1000; i++ {
		if c.Classify(r.Normal(0, 1)) == 0 {
			correct++
		}
		if c.Classify(r.Normal(6, 1)) == 1 {
			correct++
		}
	}
	if rate := float64(correct) / 2000; rate < 0.99 {
		t.Errorf("separated KDE classes detection = %v", rate)
	}
	if c.Label(0) != "low" || c.Label(1) != "high" {
		t.Error("labels lost in training")
	}
}

func TestTrainKDEErrors(t *testing.T) {
	if _, err := TrainKDE([]string{"a"}, nil, nil); err == nil {
		t.Error("want mismatch error")
	}
	if _, err := TrainKDE([]string{"a", "b"}, [][]float64{{1, 2}, {3}}, nil); err == nil {
		t.Error("want per-class KDE error")
	}
	if _, err := TrainKDE([]string{"a", "b"}, [][]float64{{1, 2}, {3, 4}}, []float64{1}); err == nil {
		t.Error("want priors mismatch error")
	}
}

func TestTrainGaussianMatchesKDEWhenGaussian(t *testing.T) {
	r := xrand.New(7)
	mk := func(mu float64) []float64 {
		xs := make([]float64, 2000)
		for i := range xs {
			xs[i] = r.Normal(mu, 1)
		}
		return xs
	}
	feats := [][]float64{mk(0), mk(2)}
	ck, err := TrainKDE([]string{"a", "b"}, feats, nil)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := TrainGaussian([]string{"a", "b"}, feats, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The two trainings should agree on nearly all of a fresh test set.
	agree := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		s := r.Normal(1, 1.5)
		if ck.Classify(s) == cg.Classify(s) {
			agree++
		}
	}
	if rate := float64(agree) / trials; rate < 0.97 {
		t.Errorf("KDE vs Gaussian agreement = %v", rate)
	}
}

func TestTrainGaussianErrors(t *testing.T) {
	if _, err := TrainGaussian([]string{"a", "b"}, [][]float64{{1, 2}, {3}}, nil); err == nil {
		t.Error("want error for short class sample")
	}
	if _, err := TrainGaussian([]string{"a", "b"}, [][]float64{{1, 2}, {3, 3}}, nil); err == nil {
		t.Error("want error for zero-spread class")
	}
}

// Property: detection rate of two-Gaussian classifiers always lies in
// [0.5, 1] under equal priors (guessing is always achievable).
func TestDetectionRateBounds(t *testing.T) {
	f := func(rawMu, rawS float64) bool {
		mu := math.Mod(math.Abs(rawMu), 5)
		s := 0.5 + math.Mod(math.Abs(rawS), 3)
		if math.IsNaN(mu) || math.IsNaN(s) {
			return true
		}
		c := twoGaussians(0, 1, mu, s, 1, 1)
		v, err := c.DetectionRate(-50, 50, 4000)
		if err != nil {
			return false
		}
		return v >= 0.5-1e-6 && v <= 1+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConfusion(t *testing.T) {
	cm := NewConfusion([]string{"low", "high"})
	cm.Add(0, 0)
	cm.Add(0, 0)
	cm.Add(0, 1)
	cm.Add(1, 1)
	if cm.Total() != 4 {
		t.Errorf("total = %d", cm.Total())
	}
	if !almostEq(cm.DetectionRate(), 0.75, 1e-12) {
		t.Errorf("detection = %v", cm.DetectionRate())
	}
	if !almostEq(cm.ClassRate(0), 2.0/3, 1e-12) || !almostEq(cm.ClassRate(1), 1, 1e-12) {
		t.Errorf("class rates = %v, %v", cm.ClassRate(0), cm.ClassRate(1))
	}
	if cm.Count(0, 1) != 1 {
		t.Errorf("count(0,1) = %d", cm.Count(0, 1))
	}
	if s := cm.String(); len(s) == 0 {
		t.Error("empty String()")
	}
}

func TestConfusionEmpty(t *testing.T) {
	cm := NewConfusion([]string{"a", "b"})
	if cm.DetectionRate() != 0 || cm.ClassRate(0) != 0 {
		t.Error("empty confusion should report zero rates")
	}
}

func BenchmarkClassifyKDE(b *testing.B) {
	r := xrand.New(1)
	mk := func(mu float64) []float64 {
		xs := make([]float64, 500)
		for i := range xs {
			xs[i] = r.Normal(mu, 1)
		}
		return xs
	}
	c, err := TrainKDE([]string{"a", "b"}, [][]float64{mk(0), mk(2)}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Classify(float64(i%40)/10 - 1)
	}
}
