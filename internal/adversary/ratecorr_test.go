package adversary

import (
	"math"
	"testing"

	"linkpad/internal/analytic"
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

func TestPearson(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	if r, _ := Pearson(a, b); math.Abs(r-1) > 1e-12 {
		t.Errorf("perfectly linear: r = %v, want 1", r)
	}
	neg := []float64{5, 4, 3, 2, 1}
	if r, _ := Pearson(a, neg); math.Abs(r+1) > 1e-12 {
		t.Errorf("anti-linear: r = %v, want -1", r)
	}
	flat := []float64{3, 3, 3, 3, 3}
	if r, _ := Pearson(a, flat); r != 0 {
		t.Errorf("constant side: r = %v, want 0 (no fingerprint)", r)
	}
	if _, err := Pearson(a, b[:3]); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Pearson(nil, nil); err == nil {
		t.Error("empty vectors should fail")
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
