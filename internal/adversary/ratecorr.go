package adversary

import (
	"errors"
	"math"
)

// Windowed rate correlation: the throughput-fingerprinting feature of
// the flow-correlation attack (CorrelateFlows). The adversary reduces an
// observed packet timestamp stream to a vector of per-window packet
// counts (its "throughput fingerprint") and matches ingress against
// egress flows by Pearson correlation of the two vectors. Unlike the PIAT features — which
// fingerprint a flow's *class* — the rate vector fingerprints the flow's
// *payload sample path*, so it identifies the individual user whenever the
// padding lets payload rate fluctuations reach the wire.

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

// Pearson returns the sample correlation coefficient of a and b, which
// must have equal positive length. Degenerate vectors (either side
// constant) correlate at 0: a constant-rate padded flow carries no
// throughput fingerprint, which is exactly the defense's goal, so "no
// information" is the correct score rather than an error.
func Pearson(a, b []float64) (float64, error) {
	if len(a) == 0 || len(a) != len(b) {
		return 0, errors.New("adversary: Pearson needs equal-length non-empty vectors")
	}
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return 0, nil
	}
	return sab / math.Sqrt(saa*sbb), nil
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
