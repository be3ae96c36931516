package bayes

import (
	"math"
	"testing"

	"linkpad/internal/dist"
	"linkpad/internal/xrand"
)

// LogPosteriors writes the normalized log posteriors log P(ω_i | s_1..s_k)
// into out (grown if needed) and returns it.
func (s *Sequential) LogPosteriors(out []float64) []float64 {
	if cap(out) < len(s.logw) {
		out = make([]float64, len(s.logw))
	}
	out = out[:len(s.logw)]
	z := logSumExp(s.logw)
	for i, lw := range s.logw {
		out[i] = lw - z
	}
	return out
}

// Posteriors is LogPosteriors in linear space.
func (s *Sequential) Posteriors(out []float64) []float64 {
	out = s.LogPosteriors(out)
	for i, lp := range out {
		out[i] = math.Exp(lp)
	}
	return out
}

// seqTwoGaussians builds a classifier over N(0,1) and N(mu,1).
func seqTwoGaussians(t *testing.T, mu float64) *Classifier {
	t.Helper()
	cls, err := New(
		Class{Label: "low", Prior: 0.5, Density: dist.Normal{Mu: 0, Sigma: 1}},
		Class{Label: "high", Prior: 0.5, Density: dist.Normal{Mu: mu, Sigma: 1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return cls
}

// One observed window must reproduce the classifier's single-shot
// posterior exactly — the sequential rule generalizes, never disagrees.
func TestSequentialSingleWindowMatchesPosteriors(t *testing.T) {
	cls := seqTwoGaussians(t, 1.5)
	for _, x := range []float64{-2, 0, 0.75, 1.5, 4} {
		seq := cls.NewSequential()
		seq.Observe(x)
		got := seq.Posteriors(nil)
		want := cls.Posteriors(x)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("x=%v class %d: sequential %v vs batch %v", x, i, got[i], want[i])
			}
		}
	}
}

// Evidence from the true class accumulates: the posterior of the true
// class climbs toward 1 and the decision threshold is crossed, with the
// number of windows needed shrinking as the classes separate.
func TestSequentialAccumulatesEvidence(t *testing.T) {
	rng := xrand.New(3)
	windowsToDecide := func(mu float64) int {
		cls := seqTwoGaussians(t, mu)
		seq := cls.NewSequential()
		for w := 1; w <= 1000; w++ {
			seq.Observe(mu + rng.Norm()) // sample from the "high" class
			if class, ok := seq.Decided(0.999); ok {
				if class != 1 {
					t.Fatalf("mu=%v: decided wrong class %d", mu, class)
				}
				return w
			}
		}
		t.Fatalf("mu=%v: never decided", mu)
		return 0
	}
	wWeak := windowsToDecide(0.5)
	wStrong := windowsToDecide(3.0)
	if wStrong >= wWeak {
		t.Errorf("separation 3.0 took %d windows, separation 0.5 took %d — should be faster", wStrong, wWeak)
	}
	if wStrong != 1 {
		t.Logf("strong separation decided in %d windows", wStrong)
	}
}

// Reset returns to the priors.
func TestSequentialReset(t *testing.T) {
	cls := seqTwoGaussians(t, 2)
	seq := cls.NewSequential()
	seq.Observe(2)
	seq.Observe(2.5)
	if seq.Windows() != 2 {
		t.Fatalf("windows = %d", seq.Windows())
	}
	seq.Reset()
	if seq.Windows() != 0 {
		t.Fatalf("windows after reset = %d", seq.Windows())
	}
	post := seq.Posteriors(nil)
	for i, p := range post {
		if math.Abs(p-cls.Prior(i)) > 1e-12 {
			t.Errorf("post-reset posterior[%d] = %v, want prior %v", i, p, cls.Prior(i))
		}
	}
	if _, ok := seq.Decided(0.75); ok {
		t.Error("fresh sequential should not be decided at 0.75")
	}
	if class, ok := seq.Decided(0.5); !ok || class != 0 {
		t.Error("threshold at the prior should decide immediately (documented edge)")
	}
}

// A window outside one class's finite KDE support must not eliminate the
// class irrevocably: the clamp bounds single-window evidence, and
// subsequent contrary evidence can still flip the decision.
func TestSequentialClampRecovers(t *testing.T) {
	rngL := xrand.New(5)
	rngH := xrand.New(6)
	low := make([]float64, 200)
	high := make([]float64, 200)
	for i := range low {
		low[i] = rngL.Norm()        // N(0,1) sample
		high[i] = 2.0 + rngH.Norm() // N(2,1) sample
	}
	cls, err := TrainKDE([]string{"low", "high"}, [][]float64{low, high}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq := cls.NewSequential()
	// Far beyond the high class's training support (and the low class's):
	// zero density under both — no information, posterior unchanged.
	seq.Observe(1e6)
	post := seq.Posteriors(nil)
	if math.Abs(post[0]-0.5) > 1e-9 {
		t.Fatalf("no-information window moved the posterior: %v", post)
	}
	// A value inside low's support but outside high's: strong but bounded
	// evidence for low.
	seq.Observe(-3.5)
	if lp := seq.LogPosteriors(nil); math.IsInf(lp[1], -1) {
		t.Fatal("clamped observation still eliminated the high class")
	}
	// Sustained evidence for high must overcome it.
	for i := 0; i < 40; i++ {
		seq.Observe(2.0)
	}
	if class, _ := seq.Best(); class != 1 {
		t.Errorf("sustained high evidence did not flip the decision (class %d)", class)
	}
}

// The max-shift keeps the accumulator finite over very long sessions.
func TestSequentialLongSessionStable(t *testing.T) {
	cls := seqTwoGaussians(t, 1)
	seq := cls.NewSequential()
	for i := 0; i < 100000; i++ {
		seq.Observe(1)
	}
	lp := seq.LogPosteriors(nil)
	if math.IsNaN(lp[0]) || math.IsNaN(lp[1]) {
		t.Fatalf("log posterior diverged: %v", lp)
	}
	if class, p := seq.Best(); class != 1 || !(p > 0.99) {
		t.Errorf("best = (%d, %v), want high with certainty", class, p)
	}
}

// Observe's returned single-window decision must agree with the batch
// Classify rule on the same value.
func TestSequentialObserveWindowDecision(t *testing.T) {
	cls := seqTwoGaussians(t, 1.5)
	seq := cls.NewSequential()
	for _, x := range []float64{-3, 0, 0.7499, 0.75, 0.7501, 1.5, 5} {
		if got, want := seq.Observe(x), cls.Classify(x); got != want {
			t.Errorf("x=%v: window decision %d, Classify %d", x, got, want)
		}
	}
	// Outside every class's support: the fallback matches Classify's
	// all-zero-score behavior (class 0).
	rng := xrand.New(8)
	data := make([]float64, 100)
	for i := range data {
		data[i] = rng.Norm()
	}
	kcls, err := TrainKDE([]string{"a", "b"}, [][]float64{data, data}, nil)
	if err != nil {
		t.Fatal(err)
	}
	kseq := kcls.NewSequential()
	if got, want := kseq.Observe(1e9), kcls.Classify(1e9); got != want {
		t.Errorf("no-support window decision %d, Classify %d", got, want)
	}
}
