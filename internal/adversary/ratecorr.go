package adversary

import (
	"errors"
	"math"
)

// Windowed rate correlation: the throughput-fingerprinting feature of
// the flow-correlation attack (CorrelateFlows). The adversary reduces an
// observed packet timestamp stream to a vector of per-window packet
// counts (its "throughput fingerprint") and matches ingress against
// egress flows by Pearson correlation of the two vectors (Center, then
// CenteredCorr). Unlike the PIAT features — which fingerprint a flow's
// *class* — the rate vector fingerprints the flow's *payload sample
// path*, so it identifies the individual user whenever the padding lets
// payload rate fluctuations reach the wire.

// RateVector bins the event times (absolute seconds, ascending) into
// consecutive windows of the given width starting at start, writing one
// count per window into out and returning it. Events before start or at
// or beyond start+len(out)*width are ignored. out must be non-empty and
// width positive; out is zeroed first, so a reused buffer needs no reset.
func RateVector(times []float64, start, width float64, out []float64) ([]float64, error) {
	if len(out) == 0 {
		return nil, errors.New("adversary: RateVector needs at least one window")
	}
	if !(width > 0) {
		return nil, errors.New("adversary: RateVector window width must be positive")
	}
	for i := range out {
		out[i] = 0
	}
	for _, t := range times {
		k := int((t - start) / width)
		if k < 0 || k >= len(out) || t < start {
			continue
		}
		out[k]++
	}
	return out, nil
}

// Center writes x's deviations from its mean to dev, which must have
// x's length and may alias it, and returns their sum of squares. x must
// be non-empty. The mean is the ascending sum over len(x) and the sum of
// squares accumulates in ascending order, so Center on both sides and
// CenteredCorr perform exactly the float operations of the two-pass
// Pearson coefficient, in the same order: a correlation attack centers
// each vector once and then correlates it against many at the cost of
// one dot product.
func Center(x, dev []float64) (ss float64) {
	if len(x) == 0 || len(dev) != len(x) {
		panic("adversary: Center needs a non-empty vector and an equal-length destination")
	}
	var m float64
	for _, v := range x {
		m += v
	}
	m /= float64(len(x))
	for i, v := range x {
		d := v - m
		dev[i] = d
		ss += d * d
	}
	return ss
}

// CenteredCorr returns the Pearson correlation of two centered vectors
// of equal length given their sums of squares, as Center returns them:
// the ascending dot product over sqrt(saa·sbb). A degenerate side (sum of
// squares 0: a constant vector) correlates at 0: a constant-rate padded
// flow carries no throughput fingerprint, which is exactly the defense's
// goal, so "no information" is the correct score rather than an error.
func CenteredCorr(a, b []float64, saa, sbb float64) float64 {
	if len(a) != len(b) {
		panic("adversary: CenteredCorr needs equal-length vectors")
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s / math.Sqrt(saa*sbb)
}

// Replay adapts a recorded PIAT slice to the PIATSource interface, so the
// streaming extraction pipelines can reduce captured data the same way
// they reduce live streams. Reads past the end repeat the final value;
// callers size their windows to the data (Remaining).
type Replay struct {
	xs []float64
	i  int
}

// NewReplay wraps the PIAT slice; the slice is not copied.
func NewReplay(xs []float64) *Replay { return &Replay{xs: xs} }

// Next returns the next recorded PIAT, saturating at the last value.
func (r *Replay) Next() float64 {
	if r.i >= len(r.xs) {
		if len(r.xs) == 0 {
			return 0
		}
		return r.xs[len(r.xs)-1]
	}
	x := r.xs[r.i]
	r.i++
	return x
}

// NextBatch fills dst with the next len(dst) recorded PIATs, saturating
// at the last value — exactly len(dst) Next calls, one copy.
func (r *Replay) NextBatch(dst []float64) {
	n := copy(dst, r.xs[min(r.i, len(r.xs)):])
	r.i += n
	if n < len(dst) {
		last := 0.0
		if len(r.xs) > 0 {
			last = r.xs[len(r.xs)-1]
		}
		for i := n; i < len(dst); i++ {
			dst[i] = last
		}
	}
}
