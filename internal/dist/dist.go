// Package dist provides the small numerical toolkit shared by the
// analytic theory, the Bayes classifier and the KDE: the normal
// distribution, the standard normal CDF, bracketing root finding, and
// composite numerical integration. Everything is dependency-free,
// deterministic (pure functions, fixed iteration counts and
// tolerances), and allocation-free.
package dist

import (
	"errors"
	"math"
)

// Normal is the normal distribution N(Mu, Sigma²). The zero value is the
// degenerate point mass at zero; a classifier density needs Sigma > 0.
type Normal struct {
	Mu    float64
	Sigma float64
}

// PDF evaluates the normal density at x.
func (n Normal) PDF(x float64) float64 {
	if !(n.Sigma > 0) {
		if x == n.Mu {
			return math.Inf(1)
		}
		return 0
	}
	z := (x - n.Mu) / n.Sigma
	return math.Exp(-0.5*z*z) / (n.Sigma * math.Sqrt(2*math.Pi))
}

// LogPDF evaluates log(PDF(x)), -Inf where the density is zero.
func (n Normal) LogPDF(x float64) float64 {
	if !(n.Sigma > 0) {
		if x == n.Mu {
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	z := (x - n.Mu) / n.Sigma
	return -0.5*z*z - math.Log(n.Sigma*math.Sqrt(2*math.Pi))
}

// StdPhi is the standard normal CDF Φ(z), evaluated via the complementary
// error function to keep full relative accuracy deep in the left tail.
func StdPhi(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// FindRoot locates a root of f on [lo, hi] by bisection. The function
// must change sign on the interval (NaN values are treated as failures).
// tol is the absolute width at which the bracket is accepted; a
// non-positive tol defaults to a width near machine resolution.
func FindRoot(f func(float64) float64, lo, hi float64, tol float64) (float64, error) {
	if !(hi > lo) {
		return 0, errors.New("dist: FindRoot needs lo < hi")
	}
	flo, fhi := f(lo), f(hi)
	if math.IsNaN(flo) || math.IsNaN(fhi) {
		return 0, errors.New("dist: FindRoot endpoint evaluated to NaN")
	}
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if (flo > 0) == (fhi > 0) {
		return 0, errors.New("dist: FindRoot interval does not bracket a root")
	}
	if tol <= 0 {
		tol = (hi - lo) * 1e-15
	}
	// 200 halvings exhaust float64 resolution for any finite bracket.
	for i := 0; i < 200 && hi-lo > tol; i++ {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			break
		}
		fm := f(mid)
		if math.IsNaN(fm) {
			return 0, errors.New("dist: FindRoot midpoint evaluated to NaN")
		}
		if fm == 0 {
			return mid, nil
		}
		if (fm > 0) == (flo > 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2, nil
}

// Integrate approximates ∫f over [lo, hi] with composite Simpson's rule
// on n subintervals (n is rounded up to the next even count; n >= 2).
// An inverted or empty interval integrates to the signed value as usual.
func Integrate(f func(float64) float64, lo, hi float64, n int) (float64, error) {
	if n < 2 {
		return 0, errors.New("dist: Integrate needs at least two intervals")
	}
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return 0, errors.New("dist: Integrate needs finite bounds")
	}
	if lo == hi {
		return 0, nil
	}
	if n%2 == 1 {
		n++
	}
	h := (hi - lo) / float64(n)
	sum := f(lo) + f(hi)
	for i := 1; i < n; i++ {
		x := lo + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	v := sum * h / 3
	if math.IsNaN(v) {
		return 0, errors.New("dist: integrand evaluated to NaN")
	}
	return v, nil
}
