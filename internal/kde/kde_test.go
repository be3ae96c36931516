package kde

import (
	"math"
	"testing"
	"testing/quick"

	"linkpad/internal/dist"
	"linkpad/internal/xrand"
)

func gaussianSample(seed uint64, n int, mu, sigma float64) []float64 {
	r := xrand.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Normal(mu, sigma)
	}
	return xs
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("want error for empty sample")
	}
	if _, err := New([]float64{1}); err == nil {
		t.Error("want error for singleton")
	}
	if _, err := New([]float64{2, 2, 2}); err == nil {
		t.Error("want error for zero-spread sample")
	}
	if _, err := NewWithBandwidth([]float64{1, 2}, 0); err == nil {
		t.Error("want error for zero bandwidth")
	}
	if _, err := NewWithBandwidth([]float64{1, 2}, math.NaN()); err == nil {
		t.Error("want error for NaN bandwidth")
	}
}

func TestPDFNonNegative(t *testing.T) {
	k, err := New(gaussianSample(1, 500, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	for x := -6.0; x <= 6; x += 0.05 {
		if p := k.PDF(x); p < 0 || math.IsNaN(p) {
			t.Fatalf("PDF(%v) = %v", x, p)
		}
	}
}

func TestPDFIntegratesToOne(t *testing.T) {
	k, err := New(gaussianSample(2, 1000, 10e-3, 5e-6))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := k.Support()
	got, err := dist.Integrate(k.PDF, lo, hi, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-6 {
		t.Errorf("PDF integral = %v", got)
	}
}

func TestRecoverGaussianDensity(t *testing.T) {
	const mu, sigma = 0.0, 1.0
	k, err := New(gaussianSample(3, 20000, mu, sigma))
	if err != nil {
		t.Fatal(err)
	}
	// The expected value of a Gaussian KDE is the truth convolved with the
	// kernel: N(mu, sigma^2 + h^2). Comparing against that isolates the
	// sampling error from the (known, intended) smoothing bias.
	h := k.bandwidth
	smoothed := dist.Normal{Mu: mu, Sigma: math.Sqrt(sigma*sigma + h*h)}
	for _, x := range []float64{-2, -1, 0, 1, 2} {
		got, want := k.PDF(x), smoothed.PDF(x)
		if math.Abs(got-want)/want > 0.10 {
			t.Errorf("PDF(%v) = %v, smoothed truth %v", x, got, want)
		}
	}
}

// A KDE trained on the tiny PIAT-variance scale (1e-11) must still be
// well-conditioned: this is the actual numeric regime of the experiments.
func TestTinyScaleConditioning(t *testing.T) {
	r := xrand.New(5)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = 2.5e-11 * (1 + 0.1*r.Norm())
	}
	k, err := New(xs)
	if err != nil {
		t.Fatal(err)
	}
	p := k.PDF(2.5e-11)
	if math.IsNaN(p) || math.IsInf(p, 0) || p <= 0 {
		t.Fatalf("PDF at center = %v", p)
	}
	lo, hi := k.Support()
	integral, err := dist.Integrate(k.PDF, lo, hi, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(integral-1) > 1e-6 {
		t.Errorf("integral = %v", integral)
	}
}

func TestLogPDFFarOutside(t *testing.T) {
	k, err := New(gaussianSample(7, 100, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	lp := k.LogPDF(1e6)
	if !math.IsInf(lp, -1) {
		t.Errorf("LogPDF far outside = %v, want -Inf", lp)
	}
	if lp := k.LogPDF(0); math.IsInf(lp, 0) || math.IsNaN(lp) {
		t.Errorf("LogPDF(0) = %v", lp)
	}
}

func TestSymmetricDataSymmetricDensity(t *testing.T) {
	// Mirror-symmetric training set => PDF(x) == PDF(-x).
	xs := []float64{-3, -2, -1, -0.5, 0.5, 1, 2, 3}
	k, err := New(xs)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.25, 0.75, 1.5, 2.5} {
		a, b := k.PDF(x), k.PDF(-x)
		if math.Abs(a-b) > 1e-15 {
			t.Errorf("asymmetry at %v: %v vs %v", x, a, b)
		}
	}
}

func TestBandwidthShrinksWithN(t *testing.T) {
	k1, err := New(gaussianSample(11, 100, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	k2, err := New(gaussianSample(11, 10000, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if k2.bandwidth >= k1.bandwidth {
		t.Errorf("bandwidth should shrink with n: %v vs %v", k1.bandwidth, k2.bandwidth)
	}
}

func TestWindowedPDFMatchesBruteForce(t *testing.T) {
	xs := gaussianSample(13, 300, 0, 1)
	k, err := New(xs)
	if err != nil {
		t.Fatal(err)
	}
	brute := func(x float64) float64 {
		h := k.bandwidth
		var sum float64
		for _, xi := range xs {
			z := (x - xi) / h
			sum += math.Exp(-0.5 * z * z)
		}
		return sum / (float64(len(xs)) * h * math.Sqrt(2*math.Pi))
	}
	for _, x := range []float64{-3, -0.5, 0, 1.2, 4} {
		got, want := k.PDF(x), brute(x)
		if math.Abs(got-want) > 1e-12*(1+want) {
			t.Errorf("PDF(%v): windowed %v vs brute %v", x, got, want)
		}
	}
}

func TestNewDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3, 2}
	if _, err := New(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[3] != 2 {
		t.Error("New mutated its input")
	}
}

// Property: density at any point is bounded by 1/(h*sqrt(2*pi)) (all mass
// in one kernel) for arbitrary samples.
func TestPDFUpperBound(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Norm()
		}
		k, err := New(xs)
		if err != nil {
			return true // zero-spread corner: rejected by construction
		}
		bound := 1/(k.bandwidth*math.Sqrt(2*math.Pi)) + 1e-9
		for i := 0; i < 20; i++ {
			if k.PDF(r.Normal(0, 2)) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPDF(b *testing.B) {
	k, err := New(gaussianSample(1, 2000, 0, 1))
	if err != nil {
		b.Fatal(err)
	}
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += k.PDF(float64(i%100)/25 - 2)
	}
	_ = sink
}

func BenchmarkNew2000(b *testing.B) {
	xs := gaussianSample(1, 2000, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(xs); err != nil {
			b.Fatal(err)
		}
	}
}
