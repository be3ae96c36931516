package adversary

import (
	"math"
	"testing"
)

// A hand-computed 3×3 case. The three 5s tie; the (identity, flow)
// tie-break resolves them as (0,1) then (1,0), so flows 0 and 1 are
// swapped and only flow 2 matches. True ranks: flow 0 has identity 1
// above it, flow 1 loses its tie to identity 0, flow 2 ranks first.
func TestSummarizeMatch(t *testing.T) {
	score := []float64{
		2, 5, 1, // identity 0 against flows 0, 1, 2
		5, 5, 0,
		0, 1, 4,
	}
	sum, err := SummarizeMatch(score, 3, make([][]float64, 3), []int{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := MatchSummary{Accuracy: 1.0 / 3, MeanRank: 5.0 / 3, ClassAccuracy: 0}
	if sum != want {
		t.Errorf("summary = %+v, want %+v", sum, want)
	}
	if _, err := SummarizeMatch(score, 2, nil, nil); err == nil {
		t.Error("score matrix of the wrong size accepted")
	}
}

func TestColumnAnonymity(t *testing.T) {
	// Peaked column: one score dominates.
	n := 4
	score := make([]float64, n*n)
	for u := 0; u < n; u++ {
		score[u*n+1] = -50
	}
	score[2*n+1] = 0
	tmp := make([]float64, n)
	if a := columnAnonymity(score, n, 1, tmp); a > 1e-9 {
		t.Errorf("peaked column anonymity %v, want ~0", a)
	}
	// Flat column: uniform posterior.
	for u := 0; u < n; u++ {
		score[u*n+3] = 1.5
	}
	if a := columnAnonymity(score, n, 3, tmp); math.Abs(a-1) > 1e-12 {
		t.Errorf("flat column anonymity %v, want 1", a)
	}
}
