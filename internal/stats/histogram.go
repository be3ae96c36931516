package stats

import (
	"errors"
	"math"
	"sort"
)

// Histogram is a fixed-bin-width histogram. The paper's robust entropy
// estimator (eq. 24) requires a constant bin width Δh across the whole
// experiment so that the log Δh term is a constant and can be dropped
// (eq. 25); Histogram therefore fixes the width at construction and grows
// its range as needed instead of rescaling bins.
type Histogram struct {
	width  float64
	origin float64 // left edge of bin index 0
	counts map[int]int
	n      int
}

// NewHistogram creates a histogram with the given bin width.
// The width must be positive.
func NewHistogram(width float64) (*Histogram, error) {
	if !(width > 0) || math.IsInf(width, 0) || math.IsNaN(width) {
		return nil, errors.New("stats: histogram bin width must be positive and finite")
	}
	return &Histogram{width: width, counts: make(map[int]int)}, nil
}

// Add places one observation into its bin. Non-finite values are counted
// into the extreme bins so that outliers produced by pathological
// configurations cannot crash a run; they carry negligible probability
// weight, which is exactly the robustness property the estimator relies on.
func (h *Histogram) Add(x float64) {
	h.counts[h.binIndex(x)]++
	h.n++
}

// AddAll places every observation in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

func (h *Histogram) binIndex(x float64) int {
	if math.IsNaN(x) {
		return 0
	}
	if math.IsInf(x, 1) {
		return math.MaxInt32
	}
	if math.IsInf(x, -1) {
		return math.MinInt32
	}
	idx := math.Floor((x - h.origin) / h.width)
	switch {
	case idx > math.MaxInt32:
		return math.MaxInt32
	case idx < math.MinInt32:
		return math.MinInt32
	}
	return int(idx)
}

// Count returns the number of observations in the bin containing x.
func (h *Histogram) Count(x float64) int { return h.counts[h.binIndex(x)] }

// Entropy returns the normalized histogram entropy of the sample,
//
//	H ≈ −Σ_i (k_i/n) log(k_i/n)
//
// i.e. the paper's eq. 25: the differential-entropy estimator of
// Moddemeijer with the constant log Δh term discarded. Natural log.
// An empty histogram has zero entropy.
func (h *Histogram) Entropy() float64 {
	if h.n == 0 {
		return 0
	}
	// Sum in sorted bin order: map iteration order is randomized, and the
	// float sum is order-sensitive at the ULP level, which would make
	// entropy features (and so whole experiment tables) non-reproducible.
	idxs := make([]int, 0, len(h.counts))
	for i := range h.counts {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	n := float64(h.n)
	var sum float64
	for _, i := range idxs {
		p := float64(h.counts[i]) / n
		sum -= p * math.Log(p)
	}
	return sum
}

// Entropy computes the eq. 25 histogram entropy of xs with the given
// constant bin width in one call. This is the adversary's sample-entropy
// feature statistic.
func Entropy(xs []float64, width float64) (float64, error) {
	h, err := NewHistogram(width)
	if err != nil {
		return 0, err
	}
	h.AddAll(xs)
	return h.Entropy(), nil
}

// EntropyDensity evaluates the histogram as a density estimate at x:
// k(x) / (n * Δh). Useful for plotting PIAT PDFs (paper Fig. 4a).
func (h *Histogram) EntropyDensity(x float64) float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.Count(x)) / (float64(h.n) * h.width)
}
