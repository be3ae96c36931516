// Package stats provides the descriptive statistics used throughout the
// link-padding study: running moments (Welford), sample mean and variance
// exactly as the adversary computes them (paper eqs. 17 and 19), fixed-bin
// histograms, and the robust histogram-based differential entropy
// estimator of Moddemeijer (paper eqs. 24-25).
//
// Everything is a deterministic pure function or a reusable accumulator:
// Moments carries Welford state in O(1), StreamHist is a dense
// fixed-bin histogram reset between windows instead of reallocated, and
// Quantile selects in place with quickselect — the feature-extraction
// hot path allocates nothing in steady state. Summation orders are
// fixed (bin order, sample order), never map order, so results are
// byte-identical across runs and worker counts.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Moments accumulates count, mean and variance in one pass using
// Welford's numerically stable recurrence. The zero value is ready to use.
type Moments struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (m *Moments) Add(x float64) {
	if m.n == 0 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// AddAll incorporates every observation in xs.
func (m *Moments) AddAll(xs []float64) {
	for _, x := range xs {
		m.Add(x)
	}
}

// N returns the number of observations seen.
func (m *Moments) N() int { return m.n }

// Mean returns the sample mean, or 0 with no observations.
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the unbiased (n-1 denominator) sample variance,
// matching the paper's eq. 19. It returns 0 for fewer than two samples.
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the square root of the unbiased sample variance.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Min returns the smallest observation (0 if none).
func (m *Moments) Min() float64 { return m.min }

// Max returns the largest observation (0 if none).
func (m *Moments) Max() float64 { return m.max }

// Mean returns the sample mean of xs (paper eq. 17). Empty input yields 0.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (paper eq. 19).
// Inputs with fewer than two elements yield 0.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mean := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - mean
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the square root of the unbiased sample variance.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. The input is left untouched; a
// scratch copy is selected with quickselect rather than fully sorted.
func Quantile(xs []float64, q float64) (float64, error) {
	if err := validateQuantile(xs, q); err != nil {
		return 0, err
	}
	s := append([]float64(nil), xs...)
	return quantileSelected(s, q), nil
}

// QuantileInPlace returns the q-quantile of s by partially reordering s
// itself (quickselect), so repeated calls on a reusable buffer allocate
// nothing. The element multiset is preserved; the order is not.
func QuantileInPlace(s []float64, q float64) (float64, error) {
	if err := validateQuantile(s, q); err != nil {
		return 0, err
	}
	return quantileSelected(s, q), nil
}

func validateQuantile(xs []float64, q float64) error {
	if len(xs) == 0 {
		return errors.New("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 {
		return errors.New("stats: quantile level out of [0,1]")
	}
	return nil
}

// quantileSelected computes the interpolated quantile of s, mutating it.
func quantileSelected(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	x := selectKth(s, lo)
	if lo == hi {
		return x
	}
	// The hi-th order statistic is the minimum of the right partition
	// quickselect leaves above position lo.
	y := s[lo+1]
	for _, v := range s[lo+2:] {
		if v < y {
			y = v
		}
	}
	frac := pos - float64(lo)
	return x*(1-frac) + y*frac
}

// selectKth places the k-th order statistic of s at index k (with smaller
// elements left of it and larger right of it) and returns it, using
// median-of-three quickselect with Hoare partitioning. Expected O(n), no
// allocation, deterministic for a given input. Behaviour with NaNs is
// unspecified (as with sort-based selection) but always terminates.
func selectKth(s []float64, k int) float64 {
	l, r := 0, len(s)-1
	for l < r {
		// Median-of-three pivot: order s[l], s[m], s[r].
		m := l + (r-l)/2
		if s[m] < s[l] {
			s[m], s[l] = s[l], s[m]
		}
		if s[r] < s[l] {
			s[r], s[l] = s[l], s[r]
		}
		if s[r] < s[m] {
			s[r], s[m] = s[m], s[r]
		}
		pivot := s[m]
		i, j := l, r
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			r = j
		case k >= i:
			l = i
		default:
			return s[k]
		}
	}
	return s[k]
}

// Autocorr returns the lag-k sample autocorrelation of xs.
// It returns 0 when the series is constant or shorter than k+2.
func Autocorr(xs []float64, k int) float64 {
	n := len(xs)
	if k < 0 || n < k+2 {
		return 0
	}
	mean := Mean(xs)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - mean
		den += d * d
		if i+k < n {
			num += d * (xs[i+k] - mean)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// KSDistance returns the two-sample Kolmogorov-Smirnov statistic
// sup_x |F_a(x) - F_b(x)|. Both inputs must be non-empty.
func KSDistance(a, b []float64) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, errors.New("stats: KSDistance of empty sample")
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	var i, j int
	var d float64
	for i < len(sa) && j < len(sb) {
		// Advance through the full run of the smallest pending value on
		// both sides before comparing: measuring mid-tie would report a
		// spurious gap when both samples share an atom.
		x := sa[i]
		if sb[j] < x {
			x = sb[j]
		}
		for i < len(sa) && sa[i] == x {
			i++
		}
		for j < len(sb) && sb[j] == x {
			j++
		}
		diff := math.Abs(float64(i)/float64(len(sa)) - float64(j)/float64(len(sb)))
		if diff > d {
			d = diff
		}
	}
	return d, nil
}

// Summary captures the descriptive statistics of a sample in one struct,
// convenient for experiment reports.
type Summary struct {
	N        int
	Mean     float64
	Variance float64
	StdDev   float64
	Min      float64
	Max      float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	var m Moments
	m.AddAll(xs)
	return Summary{
		N:        m.N(),
		Mean:     m.Mean(),
		Variance: m.Variance(),
		StdDev:   m.StdDev(),
		Min:      m.Min(),
		Max:      m.Max(),
	}
}
