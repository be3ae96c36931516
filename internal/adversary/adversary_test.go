package adversary

import (
	"math"
	"testing"

	"linkpad/internal/analytic"
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

func TestFeaturesConsumesSequentially(t *testing.T) {
	i := 0.0
	src := funcSource(func() float64 { i++; return i })
	fs, err := Features(src, Extractor{Feature: analytic.FeatureMean}, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2.5, 6.5, 10.5}
	for k := range want {
		if math.Abs(fs[k]-want[k]) > 1e-12 {
			t.Fatalf("features = %v, want %v", fs, want)
		}
	}
	if _, err := Features(src, Extractor{}, 0, 4); err == nil {
		t.Error("zero windows should fail")
	}
	if _, err := Features(src, Extractor{}, 1, 1); err == nil {
		t.Error("n=1 should fail")
	}
}

func TestTrainValidation(t *testing.T) {
	cfg := TrainConfig{Extractor: Extractor{Feature: analytic.FeatureVariance}, WindowSize: 10, WindowsPerClass: 10}
	srcs := []PIATSource{gaussSource(1, 0.01, 1e-6), gaussSource(2, 0.01, 2e-6)}
	if _, err := Train(TrainConfig{WindowSize: 1, WindowsPerClass: 10}, []string{"a", "b"}, srcs); err == nil {
		t.Error("bad window size")
	}
	if _, err := Train(TrainConfig{WindowSize: 10, WindowsPerClass: 1}, []string{"a", "b"}, srcs); err == nil {
		t.Error("bad windows per class")
	}
	if _, err := Train(cfg, []string{"a"}, srcs[:1]); err == nil {
		t.Error("one class should fail")
	}
	if _, err := Train(cfg, []string{"a", "b"}, srcs[:1]); err == nil {
		t.Error("mismatched lengths should fail")
	}
	if _, err := Train(cfg, []string{"a", "b"}, []PIATSource{srcs[0], nil}); err == nil {
		t.Error("nil source should fail")
	}
}

// Two classes with clearly different PIAT variances: the variance-feature
// attack should detect nearly perfectly; identical classes give ~0.5.
func TestTrainEvaluateSeparatedAndIdentical(t *testing.T) {
	cfg := TrainConfig{
		Extractor:       Extractor{Feature: analytic.FeatureVariance},
		WindowSize:      200,
		WindowsPerClass: 150,
	}
	sep, err := Train(cfg, []string{"low", "high"},
		[]PIATSource{gaussSource(10, 0.01, 2e-6), gaussSource(11, 0.01, 4e-6)})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := sep.Evaluate(
		[]PIATSource{gaussSource(12, 0.01, 2e-6), gaussSource(13, 0.01, 4e-6)}, 150)
	if err != nil {
		t.Fatal(err)
	}
	if v := cm.DetectionRate(); v < 0.95 {
		t.Errorf("separated detection = %v, want > 0.95", v)
	}

	same, err := Train(cfg, []string{"a", "b"},
		[]PIATSource{gaussSource(20, 0.01, 3e-6), gaussSource(21, 0.01, 3e-6)})
	if err != nil {
		t.Fatal(err)
	}
	cm, err = same.Evaluate(
		[]PIATSource{gaussSource(22, 0.01, 3e-6), gaussSource(23, 0.01, 3e-6)}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if v := cm.DetectionRate(); math.Abs(v-0.5) > 0.08 {
		t.Errorf("identical-class detection = %v, want ~0.5", v)
	}
}

// The mean feature cannot separate equal-mean classes regardless of their
// variance ratio — Theorem 1's point at the feature level.
func TestMeanFeatureFailsOnEqualMeans(t *testing.T) {
	cfg := TrainConfig{
		Extractor:       Extractor{Feature: analytic.FeatureMean},
		WindowSize:      500,
		WindowsPerClass: 150,
	}
	a, err := Train(cfg, []string{"low", "high"},
		[]PIATSource{gaussSource(30, 0.01, 2e-6), gaussSource(31, 0.01, 4e-6)})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := a.Evaluate(
		[]PIATSource{gaussSource(32, 0.01, 2e-6), gaussSource(33, 0.01, 4e-6)}, 200)
	if err != nil {
		t.Fatal(err)
	}
	// i.i.d. Gaussian PIATs: sample-mean ratio keeps r, detection ~0.58
	// per the exact Theorem 1 value at r=4 (0.69); allow the whole
	// sub-random-guessing band up to well below variance's performance.
	if v := cm.DetectionRate(); v > 0.8 {
		t.Errorf("mean-feature detection = %v, should stay far below variance's ~1.0", v)
	}
}

func TestGaussianFitPath(t *testing.T) {
	cfg := TrainConfig{
		Extractor:       Extractor{Feature: analytic.FeatureVariance},
		WindowSize:      200,
		WindowsPerClass: 100,
		GaussianFit:     true,
	}
	a, err := Train(cfg, []string{"low", "high"},
		[]PIATSource{gaussSource(40, 0.01, 2e-6), gaussSource(41, 0.01, 4e-6)})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := a.Evaluate(
		[]PIATSource{gaussSource(42, 0.01, 2e-6), gaussSource(43, 0.01, 4e-6)}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if v := cm.DetectionRate(); v < 0.9 {
		t.Errorf("gaussian-fit detection = %v", v)
	}
}

func TestEvaluateErrors(t *testing.T) {
	cfg := TrainConfig{Extractor: Extractor{Feature: analytic.FeatureVariance}, WindowSize: 50, WindowsPerClass: 20}
	a, err := Train(cfg, []string{"low", "high"},
		[]PIATSource{gaussSource(50, 0.01, 2e-6), gaussSource(51, 0.01, 4e-6)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Evaluate([]PIATSource{gaussSource(1, 0.01, 1e-6)}, 10); err == nil {
		t.Error("wrong class count should fail")
	}
	if _, err := a.Evaluate([]PIATSource{gaussSource(1, 0.01, 1e-6), nil}, 10); err == nil {
		t.Error("nil source should fail")
	}
	if _, err := a.Evaluate([]PIATSource{gaussSource(1, 0.01, 1e-6), gaussSource(2, 0.01, 1e-6)}, 0); err == nil {
		t.Error("zero windows should fail")
	}
}

func TestClassifyWindowDirect(t *testing.T) {
	cfg := TrainConfig{Extractor: Extractor{Feature: analytic.FeatureVariance}, WindowSize: 100, WindowsPerClass: 80}
	a, err := Train(cfg, []string{"low", "high"},
		[]PIATSource{gaussSource(60, 0.01, 2e-6), gaussSource(61, 0.01, 6e-6)})
	if err != nil {
		t.Fatal(err)
	}
	// One window at a time, the way cmd/advclassify evaluates traces:
	// extract through a pipeline, then apply the trained Bayes rule.
	p, err := NewPipeline(cfg.Extractor)
	if err != nil {
		t.Fatal(err)
	}
	classify := func(src PIATSource) int {
		f, err := p.ExtractFrom(src, cfg.WindowSize)
		if err != nil {
			t.Fatal(err)
		}
		return a.Classifier().Classify(f)
	}
	cl := classify(gaussSource(62, 0.01, 2e-6))
	ch := classify(gaussSource(63, 0.01, 6e-6))
	if cl != 0 || ch != 1 {
		t.Errorf("classified %d/%d, want 0/1", cl, ch)
	}
	if a.Classifier().Label(0) != "low" {
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
		cfg := TrainConfig{
			Extractor:       Extractor{Feature: analytic.FeatureVariance},
			WindowSize:      100,
			WindowsPerClass: 50,
		}
		a, err := Train(cfg, []string{"low", "high"},
			[]PIATSource{gaussSource(1, 0.01, 2e-6), gaussSource(2, 0.01, 4e-6)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Evaluate([]PIATSource{gaussSource(3, 0.01, 2e-6), gaussSource(4, 0.01, 4e-6)}, 50); err != nil {
			b.Fatal(err)
		}
	}
}
