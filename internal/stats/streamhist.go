package stats

import (
	"errors"
	"math"
	"sort"
)

// StreamHist is a reusable fixed-bin-width histogram: the adversary's
// streaming entropy feature and the Fig. 4a density. The paper's robust
// entropy estimator (eq. 24) needs one constant bin width Δh across the
// whole experiment, so that the log Δh term is a constant and can be
// dropped (eq. 25); StreamHist fixes the width at construction and grows
// its range instead of rescaling bins. It computes the same eq. 25
// entropy as the map-based reference Entropy — identical bin indexing
// (floor(x/Δh) with the same non-finite clamping) — but stores counts in
// a dense slice centred on the data so that steady-state Add/Reset/Entropy
// allocate nothing, and it sums entropy terms in ascending bin order, the
// deterministic order Entropy also uses (Go map iteration is not ordered
// by construction).
//
// A StreamHist is not safe for concurrent use; create one per goroutine.
type StreamHist struct {
	width  float64
	counts []int32
	base   int   // absolute bin index of counts[0]
	margin int   // growth slack added on (re)allocation
	filled bool  // base is meaningful
	touch  []int // absolute indices of non-empty dense bins
	// spill holds counts for extreme indices a dense slice cannot
	// reasonably cover (e.g. a NaN clamped to bin 0 while the data sits
	// micro-seconds from zero with a nano-second bin width). It is only
	// allocated if such an outlier ever appears.
	spill map[int]int32
	n     int
}

// maxDenseBins bounds the dense storage (8 MiB of int32 counts); indices
// that would force a larger span go to the spill map instead.
const maxDenseBins = 1 << 21

// NewStreamHist creates a reusable histogram with the given bin width.
func NewStreamHist(width float64) (*StreamHist, error) {
	if !(width > 0) || math.IsInf(width, 0) || math.IsNaN(width) {
		return nil, errors.New("stats: histogram bin width must be positive and finite")
	}
	return &StreamHist{width: width, margin: 256}, nil
}

// binIndex is floor(x/width) with NaN in bin 0 and ±Inf (or finite
// overflow) clamped to the extreme int32 bins, so that outliers from
// pathological configurations carry negligible weight instead of
// crashing a run — the robustness the estimator relies on.
func (h *StreamHist) binIndex(x float64) int {
	if math.IsNaN(x) {
		return 0
	}
	if math.IsInf(x, 1) {
		return math.MaxInt32
	}
	if math.IsInf(x, -1) {
		return math.MinInt32
	}
	idx := math.Floor(x / h.width)
	switch {
	case idx > math.MaxInt32:
		return math.MaxInt32
	case idx < math.MinInt32:
		return math.MinInt32
	}
	return int(idx)
}

// Add places one observation into its bin. Steady state (no range growth)
// performs no allocation.
func (h *StreamHist) Add(x float64) {
	h.n++
	idx := h.binIndex(x)
	if len(h.spill) > 0 {
		// An index that spilled earlier in this window stays in the spill
		// map even if later growth (toward a neighbor within the margin)
		// made it dense-coverable: a bin must never be split between the
		// two stores, or Entropy would double-count it.
		if _, ok := h.spill[idx]; ok {
			h.spill[idx]++
			return
		}
	}
	if !h.filled {
		h.ensure(idx)
	}
	off := idx - h.base
	if off < 0 || off >= len(h.counts) {
		if !h.ensure(idx) {
			if h.spill == nil {
				h.spill = make(map[int]int32)
			}
			h.spill[idx]++
			return
		}
		off = idx - h.base
	}
	if h.counts[off] == 0 {
		h.touch = append(h.touch, idx)
	}
	h.counts[off]++
}

// AddAll places every observation in xs.
func (h *StreamHist) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// Count returns the number of observations in the bin containing x,
// whether that bin sits in the dense window or spilled.
func (h *StreamHist) Count(x float64) int {
	idx := h.binIndex(x)
	c := int(h.spill[idx])
	if off := idx - h.base; off >= 0 && off < len(h.counts) {
		c += int(h.counts[off])
	}
	return c
}

// ensure grows the dense window to cover idx (with margin), reporting
// whether dense coverage is possible within maxDenseBins.
func (h *StreamHist) ensure(idx int) bool {
	if !h.filled {
		h.filled = true
		h.base = idx - h.margin
		need := 2*h.margin + 1
		if cap(h.counts) >= need {
			h.counts = h.counts[:need]
		} else {
			h.counts = make([]int32, need)
		}
		return true
	}
	lo, hi := h.base, h.base+len(h.counts) // current [lo, hi)
	newLo, newHi := lo, hi
	if idx < lo {
		newLo = idx - h.margin
	}
	if idx >= hi {
		newHi = idx + h.margin + 1
	}
	if newHi-newLo > maxDenseBins {
		return false
	}
	grown := make([]int32, newHi-newLo)
	copy(grown[lo-newLo:], h.counts)
	h.counts, h.base = grown, newLo
	return true
}

// Reset clears the histogram for the next window while keeping the dense
// storage (and its placement) for reuse: it zeroes only the touched bins.
func (h *StreamHist) Reset() {
	for _, idx := range h.touch {
		h.counts[idx-h.base] = 0
	}
	h.touch = h.touch[:0]
	for idx := range h.spill {
		delete(h.spill, idx)
	}
	h.n = 0
}

// Entropy returns the normalized histogram entropy (paper eq. 25).
// Terms are summed in ascending bin order — the same order
// Entropy uses — independent of dense-vs-spill placement, so
// the float result is identical across runs even when different reuse
// histories grew the dense window differently (the spill threshold
// depends on previously seen windows; the sum must not).
func (h *StreamHist) Entropy() float64 {
	if h.n == 0 {
		return 0
	}
	// touch is only needed as a set by Reset, so sorting it in place is
	// free of allocation; spilled outliers (rare) merge on a copy.
	sort.Ints(h.touch)
	idxs := h.touch
	if len(h.spill) > 0 {
		idxs = make([]int, 0, len(h.touch)+len(h.spill))
		idxs = append(idxs, h.touch...)
		for idx := range h.spill {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
	}
	n := float64(h.n)
	var sum float64
	for _, idx := range idxs {
		var c int32
		if off := idx - h.base; off >= 0 && off < len(h.counts) && h.counts[off] > 0 {
			c = h.counts[off]
		} else {
			c = h.spill[idx]
		}
		p := float64(c) / n
		sum -= p * math.Log(p)
	}
	return sum
}

// Entropy computes the eq. 25 histogram entropy of xs with the given
// constant bin width, −Σ_i (k_i/n) log(k_i/n): Moddemeijer's
// differential-entropy estimator with the constant log Δh term
// discarded, in natural log. It counts bins in a map, with its own copy
// of the bin rule, and is the plain reference StreamHist and the
// adversary's entropy feature are checked against. An empty sample has
// zero entropy.
func Entropy(xs []float64, width float64) (float64, error) {
	if !(width > 0) || math.IsInf(width, 0) {
		return 0, errors.New("stats: histogram bin width must be positive and finite")
	}
	counts := make(map[int]int)
	for _, x := range xs {
		idx := 0 // NaN
		switch f := math.Floor(x / width); {
		case f > math.MaxInt32:
			idx = math.MaxInt32
		case f < math.MinInt32:
			idx = math.MinInt32
		case !math.IsNaN(f):
			idx = int(f)
		}
		counts[idx]++
	}
	// Sum in sorted bin order: map iteration order is randomized, and the
	// float sum is order-sensitive at the ULP level.
	idxs := make([]int, 0, len(counts))
	for i := range counts {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	n := float64(len(xs))
	var sum float64
	for _, i := range idxs {
		p := float64(counts[i]) / n
		sum -= p * math.Log(p)
	}
	return sum, nil
}
