package adversary

import (
	"math"
	"testing"

	"linkpad/internal/analytic"
	"linkpad/internal/bayes"
	"linkpad/internal/stats"
	"linkpad/internal/xrand"
)

// funcSource adapts a generator function to PIATSource.
type funcSource func() float64

func (f funcSource) Next() float64 { return f() }

// gaussSource yields i.i.d. normal PIATs.
func gaussSource(seed uint64, mu, sigma float64) PIATSource {
	r := xrand.New(seed)
	return funcSource(func() float64 { return r.Normal(mu, sigma) })
}

func TestExtractorMean(t *testing.T) {
	e := Extractor{Feature: analytic.FeatureMean}
	got, err := e.Extract([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2.5 {
		t.Errorf("mean = %v", got)
	}
}

func TestExtractorVariance(t *testing.T) {
	e := Extractor{Feature: analytic.FeatureVariance}
	got, err := e.Extract([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if want := 4.0 * 8 / 7; math.Abs(got-want) > 1e-12 {
		t.Errorf("variance = %v, want %v", got, want)
	}
}

func TestExtractorEntropyMatchesStats(t *testing.T) {
	// All values sit inside one 1 ms bin but spread across several 2 µs
	// bins.
	w := []float64{0.0105, 0.0105005, 0.0105021, 0.0104998, 0.010501}
	e := Extractor{Feature: analytic.FeatureEntropy}
	got, err := e.Extract(w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stats.Entropy(w, DefaultEntropyBinWidth)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("entropy = %v, want %v", got, want)
	}
	// Custom bin width takes effect.
	e2 := Extractor{Feature: analytic.FeatureEntropy, EntropyBinWidth: 1e-3}
	coarse, err := e2.Extract(w)
	if err != nil {
		t.Fatal(err)
	}
	if coarse != 0 {
		t.Errorf("all points share one coarse bin, entropy = %v", coarse)
	}
}

func TestExtractorIQR(t *testing.T) {
	e := Extractor{Feature: analytic.FeatureIQR}
	got, err := e.Extract([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 { // Q3=4, Q1=2
		t.Errorf("IQR = %v, want 2", got)
	}
	// IQR is a robust spread measure: one huge outlier barely moves it.
	clean := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	dirty := append(append([]float64(nil), clean...), 1e6)
	a, err := e.Extract(clean)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Extract(dirty)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1.5 {
		t.Errorf("IQR moved from %v to %v on one outlier", a, b)
	}
}

func TestExtractorErrors(t *testing.T) {
	e := Extractor{Feature: analytic.FeatureMean}
	if _, err := e.Extract([]float64{1}); err == nil {
		t.Error("short window should fail")
	}
	bad := Extractor{Feature: analytic.Feature(99)}
	if _, err := bad.Extract([]float64{1, 2}); err == nil {
		t.Error("unknown feature should fail")
	}
}

// Consecutive ExtractFrom calls on one source reduce consecutive windows
// of it: nothing is skipped or re-read between windows.
func TestFeaturesConsumesSequentially(t *testing.T) {
	i := 0.0
	src := funcSource(func() float64 { i++; return i })
	mp, err := NewMultiPipeline([]Extractor{{Feature: analytic.FeatureMean}})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 1)
	for k, want := range []float64{2.5, 6.5, 10.5} {
		if err := mp.ExtractFrom(src, 4, out); err != nil {
			t.Fatal(err)
		}
		if math.Abs(out[0]-want) > 1e-12 {
			t.Fatalf("window %d mean = %v, want %v", k, out[0], want)
		}
	}
	if err := mp.ExtractFrom(src, 1, out); err == nil {
		t.Error("n=1 should fail")
	}
}

// classMats reduces `windows` consecutive windows of size n from each
// class source to that class's [extractor][window] matrix.
func classMats(t testing.TB, exts []Extractor, windows, n int, srcs ...PIATSource) [][][]float64 {
	t.Helper()
	mats := make([][][]float64, len(srcs))
	for c, src := range srcs {
		mat, err := SessionFeatureMatrix(func(int) (PIATSource, error) { return src, nil }, exts, 1, windows, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		mats[c] = mat
	}
	return mats
}

// detection fits one feature on the training sources and returns the
// detection rate over `windows` fresh windows per evaluation source.
func detection(t testing.TB, f analytic.Feature, n, windows int, gaussian bool, train, eval []PIATSource) float64 {
	t.Helper()
	exts := []Extractor{{Feature: f}}
	labels := []string{"low", "high"}
	cls, err := Fit(labels, classMats(t, exts, windows, n, train...), gaussian)
	if err != nil {
		t.Fatal(err)
	}
	if len(cls) != 1 {
		t.Fatalf("Fit returned %d classifiers for one extractor", len(cls))
	}
	cm := bayes.NewConfusion(labels)
	var preds []int
	for c, mat := range classMats(t, exts, windows, n, eval...) {
		preds = cls[0].ClassifyBatch(mat[0], preds)
		for _, pred := range preds {
			cm.Add(c, pred)
		}
	}
	return cm.DetectionRate()
}

func TestTrainValidation(t *testing.T) {
	exts := []Extractor{{Feature: analytic.FeatureVariance}}
	mats := classMats(t, exts, 10, 10, gaussSource(1, 0.01, 1e-6), gaussSource(2, 0.01, 2e-6))
	if _, err := Fit([]string{"a", "b"}, mats, false); err != nil {
		t.Fatal(err)
	}
	if _, err := Fit([]string{"a", "b", "c"}, mats, false); err == nil {
		t.Error("mismatched class counts should fail")
	}
	if _, err := Fit([]string{"a"}, mats[:1], false); err == nil {
		t.Error("one class should fail")
	}
	if _, err := Fit(nil, nil, false); err == nil {
		t.Error("no classes should fail")
	}
	two := classMats(t, append(exts, Extractor{Feature: analytic.FeatureMean}), 10, 10,
		gaussSource(3, 0.01, 1e-6))
	if _, err := Fit([]string{"a", "b"}, [][][]float64{mats[0], two[0]}, false); err == nil {
		t.Error("mismatched extractor counts should fail")
	}
	short := [][][]float64{{mats[0][0][:1]}, mats[1]}
	for _, gaussian := range []bool{false, true} {
		if _, err := Fit([]string{"a", "b"}, short, gaussian); err == nil {
			t.Errorf("gaussian=%v: one training window should fail", gaussian)
		}
	}
}

// Two classes with clearly different PIAT variances: the variance-feature
// attack should detect nearly perfectly; identical classes give ~0.5.
func TestTrainEvaluateSeparatedAndIdentical(t *testing.T) {
	v := detection(t, analytic.FeatureVariance, 200, 150, false,
		[]PIATSource{gaussSource(10, 0.01, 2e-6), gaussSource(11, 0.01, 4e-6)},
		[]PIATSource{gaussSource(12, 0.01, 2e-6), gaussSource(13, 0.01, 4e-6)})
	if v < 0.95 {
		t.Errorf("separated detection = %v, want > 0.95", v)
	}
	v = detection(t, analytic.FeatureVariance, 200, 200, false,
		[]PIATSource{gaussSource(20, 0.01, 3e-6), gaussSource(21, 0.01, 3e-6)},
		[]PIATSource{gaussSource(22, 0.01, 3e-6), gaussSource(23, 0.01, 3e-6)})
	if math.Abs(v-0.5) > 0.08 {
		t.Errorf("identical-class detection = %v, want ~0.5", v)
	}
}

// The mean feature cannot separate equal-mean classes regardless of their
// variance ratio — Theorem 1's point at the feature level.
func TestMeanFeatureFailsOnEqualMeans(t *testing.T) {
	v := detection(t, analytic.FeatureMean, 500, 150, false,
		[]PIATSource{gaussSource(30, 0.01, 2e-6), gaussSource(31, 0.01, 4e-6)},
		[]PIATSource{gaussSource(32, 0.01, 2e-6), gaussSource(33, 0.01, 4e-6)})
	// i.i.d. Gaussian PIATs: sample-mean ratio keeps r, detection ~0.58
	// per the exact Theorem 1 value at r=4 (0.69); allow the whole
	// sub-random-guessing band up to well below variance's performance.
	if v > 0.8 {
		t.Errorf("mean-feature detection = %v, should stay far below variance's ~1.0", v)
	}
}

func TestGaussianFitPath(t *testing.T) {
	v := detection(t, analytic.FeatureVariance, 200, 100, true,
		[]PIATSource{gaussSource(40, 0.01, 2e-6), gaussSource(41, 0.01, 4e-6)},
		[]PIATSource{gaussSource(42, 0.01, 2e-6), gaussSource(43, 0.01, 4e-6)})
	if v < 0.9 {
		t.Errorf("gaussian-fit detection = %v", v)
	}
}

func TestClassifyWindowDirect(t *testing.T) {
	exts := []Extractor{{Feature: analytic.FeatureVariance}}
	const n = 100
	cls, err := Fit([]string{"low", "high"},
		classMats(t, exts, 80, n, gaussSource(60, 0.01, 2e-6), gaussSource(61, 0.01, 6e-6)), false)
	if err != nil {
		t.Fatal(err)
	}
	// One window at a time: extract through a pipeline, then apply the
	// trained Bayes rule.
	mp, err := NewMultiPipeline(exts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 1)
	classify := func(src PIATSource) int {
		if err := mp.ExtractFrom(src, n, out); err != nil {
			t.Fatal(err)
		}
		return cls[0].Classify(out[0])
	}
	cl := classify(gaussSource(62, 0.01, 2e-6))
	ch := classify(gaussSource(63, 0.01, 6e-6))
	if cl != 0 || ch != 1 {
		t.Errorf("classified %d/%d, want 0/1", cl, ch)
	}
	if cls[0].Label(0) != "low" || cls[0].Label(1) != "high" {
		t.Error("labels lost")
	}
}

func TestEmpiricalR(t *testing.T) {
	r, err := EmpiricalR(gaussSource(70, 0.01, 2e-6), gaussSource(71, 0.01, math.Sqrt2*2e-6), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-2) > 0.05 {
		t.Errorf("empirical r = %v, want ~2", r)
	}
	if _, err := EmpiricalR(gaussSource(1, 1, 1), gaussSource(2, 1, 1), 1); err == nil {
		t.Error("n=1 should fail")
	}
	constSrc := funcSource(func() float64 { return 0.01 })
	if _, err := EmpiricalR(constSrc, gaussSource(3, 1, 1), 100); err == nil {
		t.Error("zero-variance low stream should fail")
	}
}

func BenchmarkTrainEvaluateVariance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		detection(b, analytic.FeatureVariance, 100, 50, false,
			[]PIATSource{gaussSource(1, 0.01, 2e-6), gaussSource(2, 0.01, 4e-6)},
			[]PIATSource{gaussSource(3, 0.01, 2e-6), gaussSource(4, 0.01, 4e-6)})
	}
}
