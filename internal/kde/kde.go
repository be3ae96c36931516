// Package kde implements the Gaussian kernel density estimator the
// adversary uses in the off-line training phase (paper §3.3 step 2):
// histograms are too coarse for estimating the PDF of a feature statistic,
// so the per-class feature distributions are estimated with Gaussian
// kernels and Silverman's rule-of-thumb bandwidth (Silverman 1986).
//
// Two evaluators share the fit: the exact estimator sums a kernel per
// training point per query, and Grid precomputes a log-density grid
// once (scatter-built with a multiplicative recurrence) for O(1)
// interpolated queries — the default for the classification hot path,
// property-tested against the exact form. Both are deterministic pure
// functions of the training sample, and a built Grid allocates nothing
// per query.
package kde

import (
	"errors"
	"math"
	"sort"

	"linkpad/internal/stats"
)

// KDE is a fitted Gaussian kernel density estimate over a 1-D sample.
type KDE struct {
	data      []float64 // sorted copy of the training sample
	bandwidth float64
	norm      float64 // 1 / (n * h * sqrt(2*pi))
}

// cutoff is the half-width, in bandwidths, beyond which a kernel's
// contribution is treated as zero. exp(-0.5 * 8.5^2) ~ 2e-16, i.e. below
// float64 resolution relative to the peak.
const cutoff = 8.5

// New fits a KDE to data using Silverman's rule-of-thumb bandwidth
//
//	h = 0.9 * min(sd, IQR/1.34) * n^{-1/5}
//
// The sample must contain at least two distinct values; a degenerate
// sample has no meaningful density scale.
func New(data []float64) (*KDE, error) {
	if len(data) < 2 {
		return nil, errors.New("kde: need at least two samples")
	}
	sd := stats.StdDev(data)
	q1, err := stats.Quantile(data, 0.25)
	if err != nil {
		return nil, err
	}
	q3, err := stats.Quantile(data, 0.75)
	if err != nil {
		return nil, err
	}
	spread := sd
	if iqr := (q3 - q1) / 1.34; iqr > 0 && iqr < spread {
		spread = iqr
	}
	if !(spread > 0) {
		return nil, errors.New("kde: sample has zero spread")
	}
	h := 0.9 * spread * math.Pow(float64(len(data)), -0.2)
	return NewWithBandwidth(data, h)
}

// NewWithBandwidth fits a KDE with an explicit bandwidth h > 0.
func NewWithBandwidth(data []float64, h float64) (*KDE, error) {
	if len(data) == 0 {
		return nil, errors.New("kde: empty sample")
	}
	if !(h > 0) || math.IsInf(h, 0) || math.IsNaN(h) {
		return nil, errors.New("kde: bandwidth must be positive and finite")
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	return &KDE{
		data:      sorted,
		bandwidth: h,
		norm:      1 / (float64(len(sorted)) * h * math.Sqrt(2*math.Pi)),
	}, nil
}

// Support returns the interval outside which the density is numerically
// zero: [min - cutoff*h, max + cutoff*h].
func (k *KDE) Support() (lo, hi float64) {
	return k.data[0] - cutoff*k.bandwidth, k.data[len(k.data)-1] + cutoff*k.bandwidth
}

// PDF evaluates the density estimate at x. Only kernels within the
// numeric cutoff contribute, located via binary search on the sorted
// sample, so evaluation is O(log n + m) for m in-window points.
func (k *KDE) PDF(x float64) float64 {
	h := k.bandwidth
	lo := sort.SearchFloat64s(k.data, x-cutoff*h)
	hi := sort.SearchFloat64s(k.data, x+cutoff*h)
	var sum float64
	for _, xi := range k.data[lo:hi] {
		z := (x - xi) / h
		sum += math.Exp(-0.5 * z * z)
	}
	return sum * k.norm
}

// LogPDF returns log(PDF(x)), with -Inf where the density is numerically
// zero. Bayes classification compares log densities to avoid underflow
// when a feature value lies far outside one class's training range.
func (k *KDE) LogPDF(x float64) float64 {
	p := k.PDF(x)
	if p <= 0 {
		return math.Inf(-1)
	}
	return math.Log(p)
}
