package population

import (
	"testing"

	"linkpad/internal/xrand"
)

// sparse_test.go: the round fold (sparseVec.fold over a rcptHist) against
// the per-delivery accumulation it replaced, kept here as the oracle.

// add accumulates x into coordinate i, inserting it if absent: one
// binary search per delivery and a shift of the tail per insert. It is
// the per-delivery update the estimators ran before the round fold.
func (v *sparseVec) add(i int32, x float64) {
	p, ok := v.find(i)
	if ok {
		v.val[p] += x
		return
	}
	v.idx = append(v.idx, 0)
	v.val = append(v.val, 0)
	copy(v.idx[p+1:], v.idx[p:])
	copy(v.val[p+1:], v.val[p:])
	v.idx[p] = i
	v.val[p] = x
}

// foldCheck applies each round to a fold-built and an add-built copy of
// start — scale(round) per delivery — and demands equal supports and
// bit-identical values after every round.
func foldCheck(t *testing.T, start []int32, rounds [][]int32, scale func(k int) float64) {
	t.Helper()
	var folded, added sparseVec
	for _, i := range start {
		folded.add(i, 1)
		added.add(i, 1)
	}
	var h rcptHist
	for k, rcpts := range rounds {
		x := scale(k)
		h.build(rcpts)
		folded.fold(h.idx, h.cnt, x)
		for _, r := range rcpts {
			added.add(r, x)
		}
		if !sameBits(&folded, &added) {
			t.Fatalf("round %d (%v, scale %v): fold %v/%v, per-delivery add %v/%v",
				k, rcpts, x, folded.idx, folded.val, added.idx, added.val)
		}
	}
}

// nnz returns the support size.
func (v *sparseVec) nnz() int { return len(v.idx) }

func TestFoldMatchesAdd(t *testing.T) {
	one := func(int) float64 { return 1 }
	t.Run("empty-accumulator", func(t *testing.T) {
		foldCheck(t, nil, [][]int32{{7, 3, 7, 7, 1}}, one)
	})
	t.Run("head-middle-tail", func(t *testing.T) {
		start := []int32{10, 20, 30}
		rounds := [][]int32{
			{1, 1, 5},             // head
			{25, 15, 25},          // middle
			{40, 41, 40},          // tail
			{0, 12, 15, 35, 99},   // all three at once, beside present ones
			{20, 2, 20, 100, 100}, // present and absent mixed
			{},                    // an empty round
		}
		foldCheck(t, start, rounds, one)
	})
	t.Run("inside-support", func(t *testing.T) {
		start := []int32{2, 4, 6, 8, 10}
		rounds := [][]int32{{4, 4, 10, 2}, {8, 6, 6, 6}}
		foldCheck(t, start, rounds, func(k int) float64 { return float64(k + 2) })
		// Nothing is inserted, so the support must not have moved or grown.
		var v sparseVec
		for _, i := range start {
			v.add(i, 1)
		}
		idx0 := &v.idx[0]
		var h rcptHist
		for _, r := range rounds {
			h.build(r)
			v.fold(h.idx, h.cnt, 1)
		}
		if v.nnz() != len(start) || &v.idx[0] != idx0 {
			t.Fatalf("a round inside the support inserted coordinates: %v", v.idx)
		}
	})
	t.Run("random-repeats", func(t *testing.T) {
		rng := xrand.New(11)
		rounds := make([][]int32, 400)
		for k := range rounds {
			r := make([]int32, rng.Intn(48))
			for j := range r {
				if rng.Float64() < 0.4 {
					r[j] = int32(rng.Intn(6)) * 37 // a hot set that repeats
				} else {
					r[j] = int32(rng.Intn(2000))
				}
			}
			rounds[k] = r
		}
		foldCheck(t, nil, rounds, one)
	})
	t.Run("least-squares-scales", func(t *testing.T) {
		// say gains a per delivery, sby gains b = n − a, as lsEstimator folds.
		rng := xrand.New(12)
		const n = 24
		rounds := make([][]int32, 300)
		as := make([]float64, len(rounds))
		for k := range rounds {
			r := make([]int32, n)
			for j := range r {
				r[j] = int32(rng.Intn(300))
			}
			rounds[k] = r
			as[k] = float64(rng.Intn(4))
		}
		t.Run("a", func(t *testing.T) {
			foldCheck(t, nil, rounds, func(k int) float64 { return as[k] })
		})
		t.Run("b", func(t *testing.T) {
			foldCheck(t, nil, rounds, func(k int) float64 { return n - as[k] })
		})
	})
}

// TestRcptHistBuild: the histogram is strictly ascending, its counts sum
// to the round size, and it leaves the round itself untouched.
func TestRcptHistBuild(t *testing.T) {
	rcpts := []int32{9, 2, 9, 5, 2, 9}
	var h rcptHist
	h.build(rcpts)
	wantIdx, wantCnt := []int32{2, 5, 9}, []float64{2, 1, 3}
	if h.n != len(rcpts) || len(h.idx) != len(wantIdx) {
		t.Fatalf("hist n=%d idx=%v cnt=%v", h.n, h.idx, h.cnt)
	}
	for k := range wantIdx {
		if h.idx[k] != wantIdx[k] || h.cnt[k] != wantCnt[k] {
			t.Fatalf("hist idx=%v cnt=%v, want %v %v", h.idx, h.cnt, wantIdx, wantCnt)
		}
	}
	if rcpts[0] != 9 || rcpts[1] != 2 {
		t.Fatalf("build reordered the round: %v", rcpts)
	}
	h.build(nil)
	if h.n != 0 || len(h.idx) != 0 {
		t.Fatalf("empty round left idx=%v", h.idx)
	}
}
