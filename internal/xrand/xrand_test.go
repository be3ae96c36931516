package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first outputs")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", u)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		u := r.Float64()
		sum += u
		sumsq += u * u
	}
	mean := sum / n
	varr := sumsq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want 0.5", mean)
	}
	if math.Abs(varr-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v, want %v", varr, 1.0/12)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(5)
	const n = 400000
	var sum, sumsq, sum3 float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumsq += x * x
		sum3 += x * x * x
	}
	mean := sum / n
	varr := sumsq/n - mean*mean
	skew := sum3 / n
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want 0", mean)
	}
	if math.Abs(varr-1) > 0.02 {
		t.Errorf("normal variance = %v, want 1", varr)
	}
	if math.Abs(skew) > 0.03 {
		t.Errorf("normal third moment = %v, want 0", skew)
	}
}

func TestNormalScaling(t *testing.T) {
	r := New(9)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.Normal(10e-3, 3e-6)
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	sd := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-10e-3) > 1e-7 {
		t.Errorf("mean = %v, want 10e-3", mean)
	}
	if math.Abs(sd-3e-6) > 1e-7 {
		t.Errorf("sd = %v, want 3e-6", sd)
	}
}

func TestNormalNegativeSigmaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Normal(0, -1)
}

func TestExpMoments(t *testing.T) {
	r := New(13)
	const n, mean = 200000, 4.4e-6
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.Exp(mean)
		if x < 0 {
			t.Fatalf("negative exponential variate %v", x)
		}
		sum += x
		sumsq += x * x
	}
	m := sum / n
	v := sumsq/n - m*m
	if math.Abs(m-mean)/mean > 0.02 {
		t.Errorf("exp mean = %v, want %v", m, mean)
	}
	if math.Abs(v-mean*mean)/(mean*mean) > 0.05 {
		t.Errorf("exp variance = %v, want %v", v, mean*mean)
	}
}

func TestExpZeroMean(t *testing.T) {
	if got := New(1).Exp(0); got != 0 {
		t.Fatalf("Exp(0) = %v, want 0", got)
	}
}

func TestGeometricMoments(t *testing.T) {
	for _, p := range []float64{0, 0.1, 0.4, 0.9} {
		r := New(23)
		const n = 200000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Geometric(p))
		}
		m := sum / n
		want := p / (1 - p)
		if math.Abs(m-want) > 0.05*(1+want) {
			t.Errorf("p=%v: mean = %v, want %v", p, m, want)
		}
	}
}

func TestGeometricPanics(t *testing.T) {
	for _, p := range []float64{-0.1, 1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Geometric(%v) did not panic", p)
				}
			}()
			New(1).Geometric(p)
		}()
	}
}

func TestTruncNormalRespectsFloor(t *testing.T) {
	r := New(29)
	for i := 0; i < 100000; i++ {
		x := r.TruncNormal(10e-3, 5e-3, 1e-3)
		if x < 1e-3 {
			t.Fatalf("truncated normal below floor: %v", x)
		}
	}
}

func TestTruncNormalDegenerate(t *testing.T) {
	if got := New(1).TruncNormal(5, 0, 7); got != 7 {
		t.Fatalf("TruncNormal(5,0,7) = %v, want clamped 7", got)
	}
	if got := New(1).TruncNormal(9, 0, 7); got != 9 {
		t.Fatalf("TruncNormal(9,0,7) = %v, want 9", got)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(31)
	counts := make([]int, 7)
	const n = 70000
	for i := 0; i < n; i++ {
		k := r.Intn(7)
		if k < 0 || k >= 7 {
			t.Fatalf("Intn out of range: %d", k)
		}
		counts[k]++
	}
	for k, c := range counts {
		if math.Abs(float64(c)-n/7) > 5*math.Sqrt(n/7.0) {
			t.Errorf("bucket %d count %d deviates from uniform", k, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestBernoulliRate(t *testing.T) {
	r := New(41)
	const n = 100000
	hit := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hit++
		}
	}
	rate := float64(hit) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", rate)
	}
}

// Property: Float64 always in [0,1) and Exp non-negative,
// for arbitrary seeds.
func TestQuickProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			if u := r.Float64(); u < 0 || u >= 1 {
				return false
			}
			if r.Exp(1e-6) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Norm()
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Exp(1)
	}
	_ = sink
}

// TestNewStreamMatchesNew: a Stream from NewStream(seed) draws exactly
// what New(seed) draws, across every kind of draw a Stream makes, and a
// Rand's Stream continues the Rand's own sequence.
func TestNewStreamMatchesNew(t *testing.T) {
	s, ref := NewStream(42), New(42)
	for i := 0; i < 100; i++ {
		if got, want := s.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("Uint64 %d: %v, want %v", i, got, want)
		}
		if got, want := s.Exp(2), ref.Exp(2); got != want {
			t.Fatalf("Exp %d: %v, want %v", i, got, want)
		}
		if got, want := s.Intn(1000), ref.Intn(1000); got != want {
			t.Fatalf("Intn %d: %v, want %v", i, got, want)
		}
	}
	ref.Norm() // the cache a Stream does not hold does not move the state
	inner := ref.Stream
	if got, want := inner.Float64(), ref.Float64(); got != want {
		t.Fatalf("a Rand's Stream draws %v, the Rand %v", got, want)
	}
}
