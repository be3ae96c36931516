package kde

import (
	"errors"
	"math"
)

// Grid is a precomputed log-density table over a KDE's support that
// answers PDF/LogPDF queries in O(1) by linear interpolation of the log
// density, instead of the exact KDE's O(log n + m) kernel sum per query.
// Interpolating in log space keeps the *relative* error bounded across
// the whole support — the tails of a Gaussian mixture are near-quadratic
// in log space — so grid densities track the exact KDE to ~1e-4 relative
// at the default resolution (32 nodes per bandwidth).
//
// The exact KDE is retained (Exact) as the reference implementation; the
// classifier training path uses Grid by default and the property tests
// bound the grid error against the exact densities.
type Grid struct {
	exact *KDE
	lo    float64 // first grid node == support lower edge
	hi    float64 // support upper edge (density is zero beyond)
	step  float64
	inv   float64 // 1/step
	logp  []float64
}

// nodesPerBandwidth sets the default grid resolution. Log-linear
// interpolation error scales with (step/h)²/8 ≈ 1.2e-4 at 32 nodes per
// bandwidth, comfortably inside the 1e-3 property-test bound.
const nodesPerBandwidth = 32

// maxGridNodes caps the table size for pathological samples whose range
// spans very many bandwidths; the step degrades gracefully there.
const maxGridNodes = 1 << 17

// Grid builds a log-density table at the default resolution.
func (k *KDE) Grid() *Grid {
	lo, hi := k.Support()
	points := int(math.Ceil((hi-lo)/k.bandwidth*nodesPerBandwidth)) + 1
	if points < 64 {
		points = 64
	}
	if points > maxGridNodes {
		points = maxGridNodes
	}
	g, err := NewGrid(k, points)
	if err != nil {
		// Unreachable: points >= 64 and the KDE is already validated.
		panic("kde: default grid construction failed: " + err.Error())
	}
	return g
}

// NewGrid builds a log-density table with an explicit node count >= 2.
func NewGrid(k *KDE, points int) (*Grid, error) {
	if k == nil {
		return nil, errors.New("kde: nil KDE")
	}
	if points < 2 {
		return nil, errors.New("kde: grid needs at least two nodes")
	}
	lo, hi := k.Support()
	step := (hi - lo) / float64(points-1)
	g := &Grid{exact: k, lo: lo, hi: hi, step: step, inv: 1 / step,
		logp: make([]float64, points)}
	g.build()
	return g, nil
}

// build evaluates the exact KDE on every node in O(n·w + points) for w
// nodes per kernel window, scattering each kernel over its covered nodes
// with a multiplicative recurrence (three exp calls per data point, two
// multiplies per node) instead of an exp per (node, kernel) pair:
//
//	t_j = exp(-½ z_j²),  z_{j+1} = z_j + δ  ⇒  t_{j+1} = t_j · r_j,
//	r_j = exp(-z_j δ - δ²/2),  r_{j+1} = r_j · exp(-δ²).
//
// The accumulated rounding over a kernel's ~2·cutoff/δ nodes is a few
// hundred ULPs (~1e-13 relative), far below the interpolation error.
func (g *Grid) build() {
	k := g.exact
	h := k.bandwidth
	delta := g.step / h
	q := math.Exp(-delta * delta)
	dens := make([]float64, len(g.logp))
	for _, xi := range k.data {
		jStart := int(math.Ceil((xi - cutoff*h - g.lo) * g.inv))
		if jStart < 0 {
			jStart = 0
		}
		jEnd := int(math.Floor((xi + cutoff*h - g.lo) * g.inv))
		if jEnd > len(dens)-1 {
			jEnd = len(dens) - 1
		}
		if jStart > jEnd {
			continue
		}
		z := (g.lo + float64(jStart)*g.step - xi) / h
		t := math.Exp(-0.5 * z * z)
		r := math.Exp(-z*delta - 0.5*delta*delta)
		for j := jStart; j <= jEnd; j++ {
			dens[j] += t
			t *= r
			r *= q
		}
	}
	for j, d := range dens {
		if d > 0 {
			g.logp[j] = math.Log(d * k.norm)
		} else {
			g.logp[j] = math.Inf(-1)
		}
	}
}

// locate resolves x to a cell index and intra-cell fraction; ok is false
// outside the support (where the density is numerically zero).
func (g *Grid) locate(x float64) (i int, frac float64, ok bool) {
	if !(x >= g.lo && x <= g.hi) { // NaN fails both comparisons
		return 0, 0, false
	}
	pos := (x - g.lo) * g.inv
	i = int(pos)
	if i > len(g.logp)-2 {
		i = len(g.logp) - 2
	}
	return i, pos - float64(i), true
}

// PDF returns the interpolated density at x. Cells bordering a density
// gap (a zero node inside the support, possible when the sample has
// clusters more than two cutoff widths apart) fall back to the exact KDE
// so the gap edges stay correct.
func (g *Grid) PDF(x float64) float64 {
	i, frac, ok := g.locate(x)
	if !ok {
		return 0
	}
	l0, l1 := g.logp[i], g.logp[i+1]
	if math.IsInf(l0, -1) || math.IsInf(l1, -1) {
		return g.exact.PDF(x)
	}
	return math.Exp(l0 + (l1-l0)*frac)
}

// LogPDF returns log(PDF(x)), -Inf where the density is numerically zero.
func (g *Grid) LogPDF(x float64) float64 {
	i, frac, ok := g.locate(x)
	if !ok {
		return math.Inf(-1)
	}
	l0, l1 := g.logp[i], g.logp[i+1]
	if math.IsInf(l0, -1) || math.IsInf(l1, -1) {
		return g.exact.LogPDF(x)
	}
	return l0 + (l1-l0)*frac
}

// PDFBatch evaluates the density at every xs[i] into out, which is grown
// if needed and returned; passing a reusable buffer makes batch scoring
// allocation-free.
func (g *Grid) PDFBatch(xs, out []float64) []float64 {
	out = sizeBatch(out, len(xs))
	for i, x := range xs {
		out[i] = g.PDF(x)
	}
	return out
}

// sizeBatch returns out resized to n, reusing its capacity when possible.
func sizeBatch(out []float64, n int) []float64 {
	if cap(out) < n {
		return make([]float64, n)
	}
	return out[:n]
}

// PDFBatch is the exact KDE's batch evaluation — same semantics as PDF
// per element; the grid answers these queries in O(1) each instead.
func (k *KDE) PDFBatch(xs, out []float64) []float64 {
	out = sizeBatch(out, len(xs))
	for i, x := range xs {
		out[i] = k.PDF(x)
	}
	return out
}
