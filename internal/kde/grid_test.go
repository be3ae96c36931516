package kde

import (
	"math"
	"testing"
	"testing/quick"

	"linkpad/internal/xrand"
)

// gridAccuracyFloor ignores queries where the exact density is below
// 1e-12 of the peak: relative error on numerically-zero tails is
// meaningless (and the classifier compares log densities, where such
// values are ties at -∞ anyway).
const gridAccuracyFloor = 1e-12

// maxRelErr scans the support at a finer pitch than the grid and returns
// the worst relative error of the grid density against the exact KDE.
func maxRelErr(t *testing.T, g *Grid) float64 {
	t.Helper()
	lo, hi := g.exact.Support()
	peak := 0.0
	steps := 4 * len(g.logp)
	for i := 0; i <= steps; i++ {
		x := lo + (hi-lo)*float64(i)/float64(steps)
		if p := g.exact.PDF(x); p > peak {
			peak = p
		}
	}
	worst := 0.0
	for i := 0; i <= steps; i++ {
		x := lo + (hi-lo)*float64(i)/float64(steps)
		want := g.exact.PDF(x)
		if want < gridAccuracyFloor*peak {
			continue
		}
		if e := math.Abs(g.PDF(x)-want) / want; e > worst {
			worst = e
		}
	}
	return worst
}

// Property: grid densities match the exact KDE within 1e-3 relative
// error across the support, for a spread of sample shapes and sizes.
func TestGridMatchesExactWithinTolerance(t *testing.T) {
	cases := []struct {
		name string
		data []float64
	}{
		{"gaussian", gaussianSample(2, 200, 10e-3, 5e-6)},
		{"gaussian-small", gaussianSample(3, 24, 0, 1)},
		{"tiny-scale", gaussianSample(5, 500, 2.5e-11, 2.5e-12)},
	}
	// Bimodal mixture: two clusters a few bandwidths apart.
	r := xrand.New(7)
	bimodal := make([]float64, 300)
	for i := range bimodal {
		if r.Bernoulli(0.4) {
			bimodal[i] = r.Normal(0, 1)
		} else {
			bimodal[i] = r.Normal(6, 0.5)
		}
	}
	cases = append(cases, struct {
		name string
		data []float64
	}{"bimodal", bimodal})

	for _, tc := range cases {
		k, err := New(tc.data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		g := k.Grid()
		if e := maxRelErr(t, g); e > 1e-3 {
			t.Errorf("%s: max relative grid error %v > 1e-3", tc.name, e)
		}
	}
}

// Randomized property check over arbitrary seeds and sample sizes.
func TestGridErrorProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 10 + r.Intn(400)
		xs := make([]float64, n)
		scale := math.Exp(float64(r.Intn(20)) - 10) // spans e^-10..e^9
		for i := range xs {
			xs[i] = r.Norm() * scale
		}
		k, err := New(xs)
		if err != nil {
			return true // degenerate sample, rejected by construction
		}
		g := k.Grid()
		lo, hi := g.exact.Support()
		peak := 0.0
		for i := 0; i <= 200; i++ {
			x := lo + (hi-lo)*float64(i)/200
			if p := k.PDF(x); p > peak {
				peak = p
			}
		}
		for i := 0; i < 200; i++ {
			x := lo + (hi-lo)*r.Float64()
			want := k.PDF(x)
			if want < gridAccuracyFloor*peak {
				continue
			}
			if math.Abs(g.PDF(x)-want)/want > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGridOutsideSupportAndLog(t *testing.T) {
	k, err := New(gaussianSample(13, 300, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	g := k.Grid()
	lo, hi := g.exact.Support()
	for _, x := range []float64{lo - 1, hi + 1, lo - 1e-9, hi + 1e-9, math.NaN()} {
		if p := g.PDF(x); p != 0 {
			t.Errorf("PDF(%v) = %v outside support", x, p)
		}
		if lp := g.LogPDF(x); !math.IsInf(lp, -1) {
			t.Errorf("LogPDF(%v) = %v outside support", x, lp)
		}
	}
	// Inside: LogPDF is the log of PDF.
	for _, x := range []float64{-2, 0, 1.3} {
		if got, want := g.LogPDF(x), math.Log(g.PDF(x)); math.Abs(got-want) > 1e-12 {
			t.Errorf("LogPDF(%v) = %v, want %v", x, got, want)
		}
	}
	if g.exact != k {
		t.Error("grid does not mirror its KDE")
	}
}

// A sample with two clusters far beyond the kernel cutoff (forced by an
// explicit small bandwidth — Silverman's rule scales with the spread and
// never produces one) has an interior density gap; grid queries there
// must agree with the exact KDE (zero), and the gap edges must stay
// accurate via the exact fallback.
func TestGridDensityGap(t *testing.T) {
	var xs []float64
	r := xrand.New(17)
	for i := 0; i < 100; i++ {
		xs = append(xs, r.Normal(0, 0.01))
	}
	for i := 0; i < 100; i++ {
		xs = append(xs, r.Normal(10, 0.01))
	}
	k, err := NewWithBandwidth(xs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	g := k.Grid()
	// Deep inside the gap the density is exactly zero on both paths.
	for _, x := range []float64{3, 5, 7} {
		if k.PDF(x) != 0 {
			t.Fatalf("test setup: exact PDF(%v) = %v, want a gap", x, k.PDF(x))
		}
		if got := g.PDF(x); got != 0 {
			t.Errorf("gap PDF(%v) = %v, want 0", x, got)
		}
		if lp := g.LogPDF(x); !math.IsInf(lp, -1) {
			t.Errorf("gap LogPDF(%v) = %v, want -Inf", x, lp)
		}
	}
	// Gap edges: the exact fallback keeps them consistent.
	for _, x := range []float64{0.05, 9.95, 0.4, 9.6} {
		got, want := g.PDF(x), k.PDF(x)
		if math.Abs(got-want) > 1e-3*want+1e-300 {
			t.Errorf("edge PDF(%v) = %v, exact %v", x, got, want)
		}
	}
}

func TestGridBatchMatchesScalar(t *testing.T) {
	k, err := New(gaussianSample(19, 400, 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	g := k.Grid()
	r := xrand.New(23)
	xs := make([]float64, 257)
	for i := range xs {
		xs[i] = r.Normal(5, 4)
	}
	out := g.PDFBatch(xs, nil)
	eout := k.PDFBatch(xs, nil)
	for i, x := range xs {
		if out[i] != g.PDF(x) {
			t.Fatalf("PDFBatch[%d] != PDF", i)
		}
		if eout[i] != k.PDF(x) {
			t.Fatalf("exact PDFBatch[%d] != PDF", i)
		}
	}
	// Buffer reuse: no allocation when the buffer is large enough.
	allocs := testing.AllocsPerRun(20, func() {
		out = g.PDFBatch(xs, out)
	})
	if allocs != 0 {
		t.Errorf("PDFBatch with reusable buffer allocates %v", allocs)
	}
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(nil, 10); err == nil {
		t.Error("nil KDE should fail")
	}
	k, err := New([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGrid(k, 1); err == nil {
		t.Error("one-node grid should fail")
	}
}

func BenchmarkGridPDF(b *testing.B) {
	k, err := New(gaussianSample(1, 2000, 0, 1))
	if err != nil {
		b.Fatal(err)
	}
	g := k.Grid()
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += g.PDF(float64(i%100)/25 - 2)
	}
	_ = sink
}

func BenchmarkGridBuild(b *testing.B) {
	k, err := New(gaussianSample(1, 200, 0, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.Grid()
	}
}
