package stats

import (
	"math"
	"testing"
	"testing/quick"

	"linkpad/internal/xrand"
)

// Test accessors of StreamHist.

func (h *StreamHist) N() int    { return h.n }
func (h *StreamHist) Bins() int { return len(h.touch) + len(h.spill) }

// DifferentialEntropy is the full eq. 24 estimate,
// H ≈ −Σ (k_i/n) log(k_i/n) + log Δh: the eq. 25 Entropy feature plus
// the bin-width term, which estimates the differential entropy of the
// underlying continuous distribution.
func (h *StreamHist) DifferentialEntropy() float64 {
	if h.n == 0 {
		return math.Inf(-1)
	}
	return h.Entropy() + math.Log(h.width)
}

// density is Fig. 4a's histogram density estimate at x: k(x) / (n·Δh).
func (h *StreamHist) density(x float64) float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.Count(x)) / (float64(h.n) * h.width)
}

func newHist(t *testing.T, width float64) *StreamHist {
	t.Helper()
	h, err := NewStreamHist(width)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewHistogramValidation(t *testing.T) {
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewStreamHist(w); err == nil {
			t.Errorf("NewStreamHist(%v) should fail", w)
		}
		if _, err := Entropy([]float64{1}, w); err == nil {
			t.Errorf("Entropy with width %v should fail", w)
		}
	}
	if _, err := NewStreamHist(1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramCounts(t *testing.T) {
	h := newHist(t, 1.0)
	h.AddAll([]float64{0.1, 0.2, 0.9, 1.5, 2.5, 2.6, 2.7})
	if h.N() != 7 {
		t.Fatalf("N = %d", h.N())
	}
	if got := h.Count(0.5); got != 3 {
		t.Errorf("bin [0,1) count = %d, want 3", got)
	}
	if got := h.Count(1.0); got != 1 {
		t.Errorf("bin [1,2) count = %d, want 1", got)
	}
	if got := h.Count(2.99); got != 3 {
		t.Errorf("bin [2,3) count = %d, want 3", got)
	}
	if got := h.Count(-400); got != 0 {
		t.Errorf("count far outside the dense window = %d, want 0", got)
	}
	if h.Bins() != 3 {
		t.Errorf("Bins = %d, want 3", h.Bins())
	}
	h.Reset()
	if got := h.Count(0.5); got != 0 {
		t.Errorf("count after Reset = %d, want 0", got)
	}
	// Count reads spilled bins too: with a 1 ns bin and the data at 10 ms
	// (bin 10^7), a NaN's bin 0 lies past the dense window's cap.
	sp := newHist(t, 1e-9)
	sp.AddAll([]float64{10e-3, 10e-3, math.NaN()})
	if len(sp.spill) != 1 || sp.Count(math.NaN()) != 1 || sp.Count(0) != 1 || sp.Count(10e-3) != 2 {
		t.Errorf("spilled: %d bins; counts NaN %d, 0 %d, 10ms %d; want 1 bin, 1, 1, 2",
			len(sp.spill), sp.Count(math.NaN()), sp.Count(0), sp.Count(10e-3))
	}
}

func TestHistogramNegativeValues(t *testing.T) {
	h := newHist(t, 0.5)
	h.AddAll([]float64{-0.1, -0.4, -0.6})
	if got := h.Count(-0.25); got != 2 {
		t.Errorf("bin [-0.5,0) count = %d, want 2", got)
	}
	if got := h.Count(-0.75); got != 1 {
		t.Errorf("bin [-1,-0.5) count = %d, want 1", got)
	}
}

func TestEntropySingleBin(t *testing.T) {
	h := newHist(t, 1)
	for i := 0; i < 100; i++ {
		h.Add(0.5)
	}
	if got := h.Entropy(); got != 0 {
		t.Errorf("single-bin entropy = %v, want 0", got)
	}
}

func TestEntropyUniformBins(t *testing.T) {
	h := newHist(t, 1)
	// 4 bins with equal counts: entropy = log 4.
	for i := 0; i < 4; i++ {
		for j := 0; j < 25; j++ {
			h.Add(float64(i) + 0.5)
		}
	}
	if got, want := h.Entropy(), math.Log(4); !almostEq(got, want, 1e-12) {
		t.Errorf("uniform 4-bin entropy = %v, want %v", got, want)
	}
}

func TestEntropyEmpty(t *testing.T) {
	h := newHist(t, 1)
	if h.Entropy() != 0 {
		t.Error("empty histogram entropy should be 0")
	}
	if !math.IsInf(h.DifferentialEntropy(), -1) {
		t.Error("empty differential entropy should be -Inf")
	}
	if e, err := Entropy(nil, 1); err != nil || e != 0 {
		t.Errorf("Entropy(nil) = %v, %v; want 0", e, err)
	}
}

// The differential entropy of N(mu, sigma^2) is 0.5*ln(2*pi*e*sigma^2).
// The histogram estimator (eq. 24) should approach it for a fine enough
// bin and a large sample, independent of mu.
func TestDifferentialEntropyGaussian(t *testing.T) {
	r := xrand.New(7)
	const sigma = 5e-6
	want := 0.5 * math.Log(2*math.Pi*math.E*sigma*sigma)
	h := newHist(t, sigma/4)
	for i := 0; i < 200000; i++ {
		h.Add(r.Normal(10e-3, sigma))
	}
	got := h.DifferentialEntropy()
	if math.Abs(got-want) > 0.02 {
		t.Errorf("differential entropy = %v, want %v", got, want)
	}
}

// Larger sigma must give larger estimated entropy at the same bin width:
// this is the monotonicity in r that Theorem 3 exploits.
func TestEntropyMonotoneInSigma(t *testing.T) {
	r := xrand.New(9)
	h := newHist(t, 2e-6)
	var prev float64
	for i, sigma := range []float64{2e-6, 4e-6, 8e-6} {
		h.Reset()
		for j := 0; j < 50000; j++ {
			h.Add(r.Normal(0, sigma))
		}
		e := h.Entropy()
		if i > 0 && e <= prev {
			t.Errorf("entropy not monotone: sigma=%v gives %v <= %v", sigma, e, prev)
		}
		prev = e
	}
}

// Entropy is robust to a single large outlier while variance is not —
// the paper's §4.4 motivation for the histogram estimator.
func TestEntropyRobustToOutliers(t *testing.T) {
	r := xrand.New(11)
	base := make([]float64, 2000)
	for i := range base {
		base[i] = r.Normal(0.01, 5e-6)
	}
	dirty := append(append([]float64(nil), base...), 0.02) // one 10ms outlier

	eBase, err := Entropy(base, 2e-6)
	if err != nil {
		t.Fatal(err)
	}
	eDirty, err := Entropy(dirty, 2e-6)
	if err != nil {
		t.Fatal(err)
	}
	relEnt := math.Abs(eDirty-eBase) / eBase
	relVar := math.Abs(Variance(dirty)-Variance(base)) / Variance(base)
	if relEnt > 0.01 {
		t.Errorf("entropy moved %.3f%% on one outlier", 100*relEnt)
	}
	if relVar < 10*relEnt {
		t.Errorf("variance (%.3f) should be far more outlier-sensitive than entropy (%.5f)", relVar, relEnt)
	}
}

func TestHistogramNonFiniteInputsDoNotCrash(t *testing.T) {
	h := newHist(t, 1)
	h.Add(math.NaN())
	h.Add(math.Inf(1))
	h.Add(math.Inf(-1))
	h.Add(1e300)
	h.Add(-1e300)
	if h.N() != 5 {
		t.Fatalf("N = %d, want 5", h.N())
	}
	if e := h.Entropy(); math.IsNaN(e) || e < 0 {
		t.Errorf("entropy = %v", e)
	}
}

// The density estimate is k(x)/(n·Δh) at every point of a bin, so it
// integrates to one over the non-empty bins.
func TestDensityPoints(t *testing.T) {
	h := newHist(t, 1)
	h.AddAll([]float64{0.5, 0.6, 2.5, 2.6, 2.7})
	if d := h.density(0.5); !almostEq(d, 0.4, 1e-12) {
		t.Errorf("density at bin 0 = %v, want 0.4", d)
	}
	if d := h.density(2.99); !almostEq(d, 0.6, 1e-12) {
		t.Errorf("density at bin 2 = %v, want 0.6", d)
	}
	if d := h.density(1.5); d != 0 {
		t.Errorf("density in an empty bin = %v", d)
	}
	var integral float64
	for _, x := range []float64{0.5, 1.5, 2.5} {
		integral += h.density(x) * h.width
	}
	if !almostEq(integral, 1, 1e-12) {
		t.Errorf("density integral = %v", integral)
	}
}

func TestDensityPointsEmpty(t *testing.T) {
	h := newHist(t, 1)
	if c := h.Count(0.5); c != 0 {
		t.Errorf("empty histogram count = %v, want 0", c)
	}
	if d := h.density(0.5); d != 0 {
		t.Errorf("empty histogram density = %v, want 0", d)
	}
}

// Properties: entropy is non-negative, at most log(#bins), and invariant
// under shifting all data by whole bins.
func TestEntropyProperties(t *testing.T) {
	h := newHist(t, 0.25)
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 10 + r.Intn(500)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Normal(0, 1)
		}
		h.Reset()
		h.AddAll(xs)
		e := h.Entropy()
		if e < 0 || e > math.Log(float64(h.Bins()))+1e-12 {
			return false
		}
		h.Reset()
		for _, x := range xs {
			h.Add(x + 4.0) // 16 whole bins
		}
		return almostEq(h.Entropy(), e, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEntropy1000(b *testing.B) {
	r := xrand.New(1)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.Normal(0.01, 5e-6)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Entropy(xs, 2e-6); err != nil {
			b.Fatal(err)
		}
	}
}
