package bayes

import (
	"math"
	"testing"

	"linkpad/internal/dist"
	"linkpad/internal/kde"
	"linkpad/internal/xrand"
)

// trainedKDEClassifier builds a two-class grid-KDE classifier on
// well-separated feature clouds.
func trainedKDEClassifier(t *testing.T) (*Classifier, []float64) {
	t.Helper()
	r := xrand.New(31)
	feat := make([][]float64, 2)
	for i := range feat {
		feat[i] = make([]float64, 200)
		for j := range feat[i] {
			feat[i][j] = r.Normal(float64(i), 0.4)
		}
	}
	c, err := TrainKDE([]string{"a", "b"}, feat, nil)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.Normal(0.5, 1.5)
	}
	return c, xs
}

func TestClassifyBatchMatchesScalar(t *testing.T) {
	c, xs := trainedKDEClassifier(t)
	preds := c.ClassifyBatch(xs, nil)
	for i, x := range xs {
		if want := c.Classify(x); preds[i] != want {
			t.Fatalf("sample %d (%v): batch %d vs scalar %d", i, x, preds[i], want)
		}
	}
	// Reusable output buffer and empty input.
	preds2 := c.ClassifyBatch(xs[:10], preds)
	if len(preds2) != 10 {
		t.Fatalf("reused buffer length %d", len(preds2))
	}
	if got := c.ClassifyBatch(nil, nil); len(got) != 0 {
		t.Fatal("empty batch should be empty")
	}
}

// Ties must break toward the lowest class index in both paths.
func TestClassifyBatchTieBreak(t *testing.T) {
	n := dist.Normal{Mu: 0, Sigma: 1}
	c, err := New(
		Class{Label: "first", Prior: 1, Density: n},
		Class{Label: "second", Prior: 1, Density: n},
	)
	if err != nil {
		t.Fatal(err)
	}
	preds := c.ClassifyBatch([]float64{-1, 0, 2}, nil)
	for i, p := range preds {
		if p != 0 {
			t.Errorf("tie at sample %d broke to class %d, want 0", i, p)
		}
	}
}

func TestLogPosteriors(t *testing.T) {
	c := twoGaussians(0, 1, 0, 2, 1, 1)
	for _, x := range []float64{-3, 0, 1.5, 4} {
		lp := c.LogPosteriorsInto(x, nil)
		p := c.Posteriors(x)
		for i := range p {
			if math.Abs(math.Exp(lp[i])-p[i]) > 1e-12 {
				t.Errorf("x=%v class %d: exp(logpost) %v vs post %v", x, i, math.Exp(lp[i]), p[i])
			}
		}
	}
	// Far outside a KDE's support every log density is -Inf: log priors.
	ck, _ := trainedKDEClassifier(t)
	lp := ck.LogPosteriorsInto(1e9, nil)
	for i, v := range lp {
		if math.Abs(v-math.Log(0.5)) > 1e-12 {
			t.Errorf("class %d far-outside log posterior = %v, want log(1/2)", i, v)
		}
	}
}

func TestLogSumExp(t *testing.T) {
	if got := logSumExp([]float64{math.Inf(-1), math.Inf(-1)}); !math.IsInf(got, -1) {
		t.Errorf("all -Inf = %v", got)
	}
	// log(e^0 + e^0) = log 2.
	if got := logSumExp([]float64{0, 0}); math.Abs(got-math.Log(2)) > 1e-15 {
		t.Errorf("logSumExp(0,0) = %v", got)
	}
	// Huge negative magnitudes don't underflow the result.
	if got := logSumExp([]float64{-1000, -1000}); math.Abs(got-(-1000+math.Log(2))) > 1e-12 {
		t.Errorf("logSumExp(-1000,-1000) = %v", got)
	}
}

// Grid-backed training must agree with exact-KDE training on essentially
// every classification: the decision boundaries shift by at most the
// ~1e-4 relative grid error.
func TestTrainKDEGridMatchesExact(t *testing.T) {
	r := xrand.New(41)
	feat := make([][]float64, 2)
	for i := range feat {
		feat[i] = make([]float64, 150)
		for j := range feat[i] {
			feat[i][j] = r.Normal(10e-3+float64(i)*1e-5, 4e-6)
		}
	}
	grid, err := TrainKDE([]string{"l", "h"}, feat, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The reference: the same classes over the exact kernel-sum KDEs.
	exactClasses := make([]Class, len(feat))
	for i, f := range feat {
		k, err := kde.New(f)
		if err != nil {
			t.Fatal(err)
		}
		exactClasses[i] = Class{Prior: 1, Density: k}
	}
	exact, err := New(exactClasses...)
	if err != nil {
		t.Fatal(err)
	}
	var disagreements int
	const samples = 2000
	for i := 0; i < samples; i++ {
		x := r.Normal(10.5e-3, 8e-6)
		if grid.Classify(x) != exact.Classify(x) {
			disagreements++
		}
	}
	// Only values within ~1e-4 of the decision threshold can flip.
	if disagreements > samples/100 {
		t.Errorf("%d/%d grid-vs-exact classification disagreements", disagreements, samples)
	}
}

// LogPosteriorsInto must return the same row with and without a buffer,
// and reuse a sized buffer without allocating.
func TestLogPosteriorsInto(t *testing.T) {
	cls, _ := trainedKDEClassifier(t)
	buf := make([]float64, 2)
	for _, x := range []float64{-3, -1, 0, 0.5, 2, 10} {
		want := cls.LogPosteriorsInto(x, nil)
		got := cls.LogPosteriorsInto(x, buf)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("x=%v class %d: %v != %v", x, i, got[i], want[i])
			}
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		buf = cls.LogPosteriorsInto(1.25, buf)
	})
	if avg > 0 {
		t.Errorf("LogPosteriorsInto allocates %.2f objects with a sized buffer, want 0", avg)
	}
}
