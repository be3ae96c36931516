package adversary

import (
	"math"
	"testing"

	"linkpad/internal/xrand"
)

// Capture-fault robustness of the rate-vector extraction (satellite of
// the fault-injection substrate): an impaired tap hands the adversary
// duplicated and out-of-order observations, and the reduction must
// degrade predictably — reordering is invisible (binning is
// order-insensitive), duplication inflates counts without moving them.

func TestRateVectorReorderInsensitive(t *testing.T) {
	rng := xrand.New(21)
	times := make([]float64, 5000)
	now := 0.0
	for i := range times {
		now += rng.Exp(0.01)
		times[i] = now
	}
	out := make([]float64, 40)
	if _, err := RateVector(times, 0, 1, out); err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), out...)
	// A mis-sequenced capture: bounded local shuffles like a reordering
	// tap produces, then a full reversal for good measure.
	shuffled := append([]float64(nil), times...)
	for i := 0; i+3 < len(shuffled); i += 2 {
		k := i + 1 + int(rng.Intn(3))
		shuffled[i], shuffled[k] = shuffled[k], shuffled[i]
	}
	if _, err := RateVector(shuffled, 0, 1, out); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("locally shuffled capture changed bin %d: %v != %v", i, out[i], want[i])
		}
	}
	for i, j := 0, len(shuffled)-1; i < j; i, j = i+1, j-1 {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	if _, err := RateVector(shuffled, 0, 1, out); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("reversed capture changed bin %d", i)
		}
	}
}

func TestRateVectorDuplicatedObservations(t *testing.T) {
	times := []float64{0.1, 0.5, 0.9, 1.1, 1.2, 2.5}
	// A double-recording tap repeats some observations in place.
	dup := []float64{0.1, 0.1, 0.5, 0.9, 0.9, 0.9, 1.1, 1.2, 2.5, 2.5}
	base := make([]float64, 3)
	got := make([]float64, 3)
	if _, err := RateVector(times, 0, 1, base); err != nil {
		t.Fatal(err)
	}
	if _, err := RateVector(dup, 0, 1, got); err != nil {
		t.Fatal(err)
	}
	want := []float64{base[0] + 3, base[1], base[2] + 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bin %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Uniform duplication scales every bin, so the correlation with any
	// reference is unchanged: a uniformly double-recording tap costs the
	// correlation attack nothing.
	double := make([]float64, 0, 2*len(times))
	for _, x := range times {
		double = append(double, x, x)
	}
	ref := []float64{3, 1, 5}
	if _, err := RateVector(double, 0, 1, got); err != nil {
		t.Fatal(err)
	}
	rBase, rDouble := corr(base, ref), corr(got, ref)
	if math.Abs(rBase-rDouble) > 1e-12 {
		t.Errorf("uniform duplication moved the correlation: %v != %v", rDouble, rBase)
	}
}
