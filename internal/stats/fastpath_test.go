package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"linkpad/internal/xrand"
)

// Quickselect-based quantiles must agree exactly with the sort-based
// definition: order statistics are exact values, so the interpolated
// result is bit-identical.
func TestQuantileMatchesSortedReference(t *testing.T) {
	ref := func(xs []float64, q float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		if len(s) == 1 {
			return s[0]
		}
		pos := q * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if lo == hi {
			return s[lo]
		}
		frac := pos - float64(lo)
		return s[lo]*(1-frac) + s[hi]*frac
	}
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(300)
		xs := make([]float64, n)
		for i := range xs {
			if r.Bernoulli(0.3) {
				// duplicates stress the 3-way partitioning
				xs[i] = float64(r.Intn(5))
			} else {
				xs[i] = r.Norm()
			}
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1, r.Float64()} {
			got, err := Quantile(xs, q)
			if err != nil {
				return false
			}
			if got != ref(xs, q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileInPlacePreservesMultiset(t *testing.T) {
	r := xrand.New(3)
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = r.Norm()
	}
	before := append([]float64(nil), xs...)
	sort.Float64s(before)
	if _, err := QuantileInPlace(xs, 0.25); err != nil {
		t.Fatal(err)
	}
	if _, err := QuantileInPlace(xs, 0.75); err != nil {
		t.Fatal(err)
	}
	after := append([]float64(nil), xs...)
	sort.Float64s(after)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("QuantileInPlace changed the element multiset")
		}
	}
	if _, err := QuantileInPlace(nil, 0.5); err == nil {
		t.Error("empty sample should fail")
	}
}

func TestQuantileAllocationFree(t *testing.T) {
	buf := make([]float64, 1000)
	r := xrand.New(9)
	for i := range buf {
		buf[i] = r.Norm()
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := QuantileInPlace(buf, 0.25); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("QuantileInPlace allocates %v per call, want 0", allocs)
	}
}

// StreamHist must reproduce the map-based reference Entropy on the same
// data to float summation order (1e-12 relative), including reuse across
// windows.
func TestStreamHistMatchesHistogram(t *testing.T) {
	sh, err := NewStreamHist(2e-6)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(11)
	for window := 0; window < 10; window++ {
		sh.Reset()
		xs := make([]float64, 200+r.Intn(800))
		for i := range xs {
			xs[i] = r.Normal(10e-3, 5e-6)
		}
		sh.AddAll(xs)
		want, err := Entropy(xs, 2e-6)
		if err != nil {
			t.Fatal(err)
		}
		if got := sh.Entropy(); math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("window %d: stream entropy %v vs reference %v", window, got, want)
		}
		if sh.N() != len(xs) {
			t.Fatalf("window %d: N = %d, want %d", window, sh.N(), len(xs))
		}
	}
}

// Non-finite and far-outlier values follow the reference's clamping:
// NaN in bin 0, +Inf and 1e30 in the top int32 bin, −Inf and −1e30 in
// the bottom one.
func TestStreamHistNonFinite(t *testing.T) {
	vals := []float64{10e-3, 10.000002e-3, math.Inf(1), math.Inf(-1), math.NaN(), 1e30, -1e30}
	sh, err := NewStreamHist(2e-6)
	if err != nil {
		t.Fatal(err)
	}
	sh.AddAll(vals)
	want, err := Entropy(vals, 2e-6)
	if err != nil {
		t.Fatal(err)
	}
	if got := sh.Entropy(); math.Abs(got-want) > 1e-12 {
		t.Errorf("entropy with non-finite values: %v vs %v", got, want)
	}
	if sh.Count(math.NaN()) != 1 || sh.Count(math.Inf(1)) != 2 || sh.Count(math.Inf(-1)) != 2 {
		t.Errorf("clamped bins: NaN %d, +Inf %d, -Inf %d; want 1, 2, 2",
			sh.Count(math.NaN()), sh.Count(math.Inf(1)), sh.Count(math.Inf(-1)))
	}
	if _, err := NewStreamHist(0); err == nil {
		t.Error("zero width should fail")
	}
}

func TestStreamHistSteadyStateAllocationFree(t *testing.T) {
	sh, err := NewStreamHist(2e-6)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(21)
	window := make([]float64, 1000)
	fill := func() {
		for i := range window {
			window[i] = r.Normal(10e-3, 5e-6)
		}
	}
	// Warm the dense storage, then demand zero allocations per window.
	fill()
	sh.Reset()
	sh.AddAll(window)
	_ = sh.Entropy()
	allocs := testing.AllocsPerRun(20, func() {
		fill()
		sh.Reset()
		sh.AddAll(window)
		_ = sh.Entropy()
	})
	if allocs != 0 {
		t.Errorf("steady-state window costs %v allocations, want 0", allocs)
	}
}

// Entropy must not depend on whether a bin landed in the dense window
// or the spill map — placement depends on the histogram's reuse history,
// and two pipelines with different histories must still produce
// bit-identical features for the same window (the worker-count
// determinism invariant).
func TestStreamHistEntropyIndependentOfPlacementHistory(t *testing.T) {
	newHist := func(history []float64) *StreamHist {
		h, err := NewStreamHist(1)
		if err != nil {
			t.Fatal(err)
		}
		h.AddAll(history)
		h.Reset()
		return h
	}
	// a's dense window already covers the outlier bin; b's history pushed
	// its base so far left that the outlier exceeds the dense cap and
	// spills.
	const outlier = 5000 + (1 << 20)
	a := newHist([]float64{5000.5, outlier + 0.5})
	b := newHist([]float64{-(1 << 20) + 0.5, 5000.5})
	// Outlier first: a touches it first (dense) while b spills it, so a
	// naive first-touch summation would add its term in a different
	// position; distinct counts make the float sum order-sensitive.
	window := []float64{outlier + 0.5, 5000.5, 5001.5, 5001.5, 5003.5, 5003.5, 5003.5}
	a.AddAll(window)
	b.AddAll(window)
	if a.Bins() != b.Bins() || a.N() != b.N() {
		t.Fatalf("histograms disagree on contents: %d/%d bins, %d/%d n",
			a.Bins(), b.Bins(), a.N(), b.N())
	}
	if ea, eb := a.Entropy(), b.Entropy(); ea != eb {
		t.Fatalf("entropy depends on placement history: %v vs %v", ea, eb)
	}
}

// A bin that spilled must stay spilled for the rest of the window even
// when later dense growth (toward a neighbor within the margin) makes
// its index coverable — splitting one bin across the two stores would
// double-count it in Entropy.
func TestStreamHistSpillThenCoverableStaysOneBin(t *testing.T) {
	sh, err := NewStreamHist(1)
	if err != nil {
		t.Fatal(err)
	}
	// Dense starts at base 44 (first idx 300 − margin 256); the outlier
	// needs span 2097213 > 2^21 and spills; the near-outlier needs only
	// 2097013 and grows the dense window to 2097057 — past the spilled
	// index; the outlier then repeats into coverable territory.
	const outlier = 2097000.5
	vals := []float64{300.5, outlier, 2096800.5, outlier, outlier}
	sh.AddAll(vals)
	if sh.Bins() != 3 || sh.Count(outlier) != 3 {
		t.Fatalf("bins %d, outlier count %d; want 3 and 3", sh.Bins(), sh.Count(outlier))
	}
	want, err := Entropy(vals, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := sh.Entropy(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("entropy: stream %v vs reference %v", got, want)
	}
}

// The one-pass Moments accumulator must match the two-pass reference
// formulas to 1e-12 relative — the property the streaming feature
// pipeline relies on.
func TestMomentsMatchBatchFormulas(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + r.Intn(2000)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Normal(10e-3, 5e-6) // the PIAT numeric regime
		}
		var m Moments
		m.AddAll(xs)
		meanRef, varRef := Mean(xs), Variance(xs)
		if math.Abs(m.Mean()-meanRef) > 1e-12*(1+math.Abs(meanRef)) {
			return false
		}
		return math.Abs(m.Variance()-varRef) <= 1e-12*(1+math.Abs(varRef))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
