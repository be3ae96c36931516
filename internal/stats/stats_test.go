package stats

import (
	"math"
	"testing"
	"testing/quick"

	"linkpad/internal/xrand"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// population variance is 4 => sample variance is 4*8/7
	want := 4.0 * 8 / 7
	if got := Variance(xs); !almostEq(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty sample should give zero moments")
	}
	if Variance([]float64{3}) != 0 {
		t.Error("singleton variance should be 0")
	}
	if Mean([]float64{3}) != 3 {
		t.Error("singleton mean")
	}
}

func TestWelfordMatchesTwoPass(t *testing.T) {
	r := xrand.New(1)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = r.Normal(10e-3, 5e-6)
	}
	var m Moments
	m.AddAll(xs)
	if !almostEq(m.Mean(), Mean(xs), 1e-15) {
		t.Errorf("Welford mean %v vs two-pass %v", m.Mean(), Mean(xs))
	}
	relerr := math.Abs(m.Variance()-Variance(xs)) / Variance(xs)
	if relerr > 1e-9 {
		t.Errorf("Welford variance %v vs two-pass %v", m.Variance(), Variance(xs))
	}
}

func TestMomentsMinMax(t *testing.T) {
	var m Moments
	m.AddAll([]float64{3, -1, 7, 2})
	if m.Min() != -1 || m.Max() != 7 {
		t.Errorf("min/max = %v/%v", m.Min(), m.Max())
	}
	if m.N() != 4 {
		t.Errorf("N = %d", m.N())
	}
}

func TestPopVsSampleVariance(t *testing.T) {
	var m Moments
	m.AddAll([]float64{1, 2, 3, 4})
	// Population variance of 1..4 is 1.25; the sample variance uses the
	// n-1 denominator.
	if !almostEq(1.25*4/3, m.Variance(), 1e-12) {
		t.Errorf("sample variance %v, want %v", m.Variance(), 1.25*4/3)
	}
}

// Property: variance is non-negative and shift-invariant; scaling by c
// multiplies variance by c^2.
func TestVarianceProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + r.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Normal(0, 1)
		}
		v := Variance(xs)
		if v < 0 {
			return false
		}
		shifted := make([]float64, n)
		scaled := make([]float64, n)
		for i, x := range xs {
			shifted[i] = x + 7.5
			scaled[i] = 3 * x
		}
		if !almostEq(Variance(shifted), v, 1e-9*(1+v)) {
			return false
		}
		if !almostEq(Variance(scaled), 9*v, 1e-9*(1+9*v)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	} {
		got, err := Quantile(xs, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got, tc.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("want error for empty sample")
	}
	if _, err := Quantile([]float64{1}, 1.5); err == nil {
		t.Error("want error for q out of range")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestAutocorr(t *testing.T) {
	// Alternating series has lag-1 autocorrelation near -1.
	xs := make([]float64, 1000)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = 1
		} else {
			xs[i] = -1
		}
	}
	if got := Autocorr(xs, 1); got > -0.99 {
		t.Errorf("alternating lag-1 autocorr = %v, want ~ -1", got)
	}
	if got := Autocorr(xs, 2); got < 0.99*float64(len(xs)-2)/float64(len(xs)) {
		t.Errorf("alternating lag-2 autocorr = %v, want ~ 1", got)
	}
	// White noise has near-zero lag-1 autocorrelation.
	r := xrand.New(2)
	ys := make([]float64, 20000)
	for i := range ys {
		ys[i] = r.Norm()
	}
	if got := Autocorr(ys, 1); math.Abs(got) > 0.03 {
		t.Errorf("white-noise lag-1 autocorr = %v, want ~ 0", got)
	}
}

func TestAutocorrDegenerate(t *testing.T) {
	if Autocorr([]float64{1, 1, 1, 1}, 1) != 0 {
		t.Error("constant series should give 0")
	}
	if Autocorr([]float64{1, 2}, 5) != 0 {
		t.Error("too-short series should give 0")
	}
}

func TestKSDistance(t *testing.T) {
	r := xrand.New(3)
	a := make([]float64, 4000)
	b := make([]float64, 4000)
	c := make([]float64, 4000)
	for i := range a {
		a[i] = r.Norm()
		b[i] = r.Norm()
		c[i] = r.Norm() + 2 // clearly shifted
	}
	dSame, err := KSDistance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	dDiff, err := KSDistance(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if dSame > 0.05 {
		t.Errorf("KS distance of identical distributions = %v", dSame)
	}
	if dDiff < 0.5 {
		t.Errorf("KS distance of shifted distributions = %v", dDiff)
	}
	if _, err := KSDistance(nil, a); err == nil {
		t.Error("want error for empty sample")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Errorf("summary = %+v", s)
	}
	if !almostEq(s.Variance, 1, 1e-12) || !almostEq(s.StdDev, 1, 1e-12) {
		t.Errorf("summary variance = %v", s.Variance)
	}
}

func BenchmarkWelford(b *testing.B) {
	var m Moments
	for i := 0; i < b.N; i++ {
		m.Add(float64(i))
	}
}

func BenchmarkVariance1000(b *testing.B) {
	xs := make([]float64, 1000)
	r := xrand.New(1)
	for i := range xs {
		xs[i] = r.Norm()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Variance(xs)
	}
}
