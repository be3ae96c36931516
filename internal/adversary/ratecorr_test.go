package adversary

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"linkpad/internal/analytic"
	"linkpad/internal/xrand"
)

func TestRateVector(t *testing.T) {
	times := []float64{0.1, 0.5, 0.9, 1.1, 1.2, 2.5, 3.9, 4.0}
	out := make([]float64, 4)
	if _, err := RateVector(times, 0, 1, out); err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1, 1} // 4.0 falls outside [0,4)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("bin %d = %v, want %v (all %v)", i, out[i], want[i], out)
		}
	}
	// Reuse zeroes the buffer; a shifted start re-bins correctly.
	if _, err := RateVector(times[:2], 0.05, 0.5, out); err != nil {
		t.Fatal(err)
	}
	want = []float64{2, 0, 0, 0} // 0.1 and 0.5 both land in [0.05, 0.55)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("shifted bin %d = %v, want %v (all %v)", i, out[i], want[i], out)
		}
	}
	if _, err := RateVector(times, 0, 1, nil); err == nil {
		t.Error("empty output should fail")
	}
	if _, err := RateVector(times, 0, 0, out); err == nil {
		t.Error("zero width should fail")
	}
	// Events before start must not index negatively.
	if _, err := RateVector([]float64{-5, 0.5}, 0, 1, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 {
		t.Errorf("pre-start event leaked into bin 0: %v", out)
	}
}

// pearsonOracle is the two-pass Pearson coefficient the centered kernel
// replaced, kept verbatim as the bit-identity reference.
func pearsonOracle(a, b []float64) (float64, error) {
	if len(a) == 0 || len(a) != len(b) {
		return 0, errors.New("adversary: Pearson needs equal-length non-empty vectors")
	}
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return 0, nil
	}
	return sab / math.Sqrt(saa*sbb), nil
}

// corr correlates a and b through the kernel, centering into copies.
func corr(a, b []float64) float64 {
	da, db := make([]float64, len(a)), make([]float64, len(b))
	saa, sbb := Center(a, da), Center(b, db)
	return CenteredCorr(da, db, saa, sbb)
}

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s should panic", what)
		}
	}()
	fn()
}

func TestPearson(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	if r := corr(a, b); math.Abs(r-1) > 1e-12 {
		t.Errorf("perfectly linear: r = %v, want 1", r)
	}
	neg := []float64{5, 4, 3, 2, 1}
	if r := corr(a, neg); math.Abs(r+1) > 1e-12 {
		t.Errorf("anti-linear: r = %v, want -1", r)
	}
	flat := []float64{3, 3, 3, 3, 3}
	if r := corr(a, flat); r != 0 {
		t.Errorf("constant side: r = %v, want 0 (no fingerprint)", r)
	}
	mustPanic(t, "length mismatch", func() { CenteredCorr(a, b[:3], 1, 1) })
	mustPanic(t, "short destination", func() { Center(a, b[:3]) })
	mustPanic(t, "empty vector", func() { Center(nil, nil) })
	// Centering in place gives the same deviations as into a copy.
	dev := make([]float64, len(a))
	ss := Center(a, dev)
	inPlace := append([]float64(nil), a...)
	if got := Center(inPlace, inPlace); got != ss || !reflect.DeepEqual(inPlace, dev) {
		t.Errorf("in-place Center = %v %v, want %v %v", got, inPlace, ss, dev)
	}
}

// Center on both sides followed by CenteredCorr must reproduce the
// two-pass coefficient bit for bit on every kind of vector the attacks
// correlate (random reals, integer window counts, ±1 chips), on the
// degenerate ones (constant, signed zeros) and through a non-finite
// entry.
func TestCenteredCorrMatchesOracle(t *testing.T) {
	rng := xrand.New(11)
	check := func(name string, a, b []float64) {
		t.Helper()
		want, err := pearsonOracle(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got := corr(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s (n=%d): kernel %v (%#x), oracle %v (%#x)",
				name, len(a), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	fill := func(n int, draw func() float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = draw()
		}
		return xs
	}
	lengths := []int{1, 2, 3, 7, 8, 31, 32, 33, 960, 1920, 2000}
	for range 40 {
		lengths = append(lengths, 1+rng.Intn(2000))
	}
	normal := func() float64 { return rng.Normal(3, 2) }
	count := func() float64 { return float64(rng.Intn(40)) }
	chip := func() float64 {
		if rng.Bernoulli(0.5) {
			return 1
		}
		return -1
	}
	for _, n := range lengths {
		check("random", fill(n, normal), fill(n, normal))
		check("counts", fill(n, count), fill(n, count))
		check("chips vs counts", fill(n, chip), fill(n, count))
		check("chips vs random", fill(n, chip), fill(n, normal))
	}
	for _, n := range []int{1, 5, 1920} {
		c := fill(n, func() float64 { return 7 })
		if r := corr(c, fill(n, normal)); r != 0 {
			t.Errorf("constant vector (n=%d): r = %v, want 0", n, r)
		}
		check("constant", c, fill(n, normal))
		check("constant right", fill(n, count), c)
		check("zeros", fill(n, func() float64 { return 0 }), fill(n, chip))
		check("negative zeros", fill(n, func() float64 { return math.Copysign(0, -1) }), fill(n, chip))
		check("mixed zeros", fill(n, func() float64 { return math.Copysign(0, float64(chip())) }), fill(n, normal))
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, n := range []int{1, 2, 9, 1920} {
			for _, at := range []int{0, n / 2, n - 1} {
				a, b := fill(n, normal), fill(n, count)
				a[at] = bad
				check(fmt.Sprintf("%v at %d on the left", bad, at), a, b)
				check(fmt.Sprintf("%v at %d on the right", bad, at), b, a)
			}
		}
	}
}

func TestReplay(t *testing.T) {
	r := NewReplay([]float64{1, 2, 3})
	if len(r.xs) != 3 || r.i != 0 {
		t.Fatalf("replay holds %d PIATs at %d, want 3 at 0", len(r.xs), r.i)
	}
	for _, want := range []float64{1, 2, 3, 3, 3} { // saturates at the end
		if got := r.Next(); got != want {
			t.Fatalf("Next = %v, want %v", got, want)
		}
	}
	if r2 := NewReplay([]float64{1, 2, 3}); r2.Next() != 1 {
		t.Fatal("a fresh replay must start at the first PIAT")
	}
	empty := NewReplay(nil)
	if got := empty.Next(); got != 0 {
		t.Fatalf("empty replay should yield 0, got %v", got)
	}
}

// The replayed stream must reduce to the same features as the in-memory
// window it records.
func TestReplayFeedsPipeline(t *testing.T) {
	window := []float64{0.010, 0.011, 0.009, 0.012, 0.0105, 0.0095}
	exts := []Extractor{{Feature: analytic.FeatureVariance}}
	mp, err := NewMultiPipeline(exts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 1)
	if err := mp.ExtractFrom(NewReplay(window), len(window), out); err != nil {
		t.Fatal(err)
	}
	direct, err := exts[0].Extract(window)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != direct {
		t.Errorf("replayed variance %v != direct %v", out[0], direct)
	}
}
