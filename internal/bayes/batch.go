package bayes

import "math"

// BatchDensity is a density that can evaluate a whole feature batch in
// one call (kde.Grid and kde.KDE implement it). ClassifyBatch uses it to
// score an evaluation set class-by-class without per-window overhead.
type BatchDensity interface {
	Density
	PDFBatch(xs, out []float64) []float64
}

// LogDensity is a density exposing log evaluation; used by the batched
// log-posterior path to avoid underflow far in the tails.
type LogDensity interface {
	LogPDF(x float64) float64
}

// pdfBatch evaluates class i's density over xs into out, using the batch
// fast path when the density supports it.
func (c *Classifier) pdfBatch(i int, xs, out []float64) []float64 {
	if cap(out) < len(xs) {
		out = make([]float64, len(xs))
	}
	out = out[:len(xs)]
	if bd, ok := c.classes[i].Density.(BatchDensity); ok {
		return bd.PDFBatch(xs, out)
	}
	d := c.classes[i].Density
	for j, x := range xs {
		out[j] = d.PDF(x)
	}
	return out
}

// ClassifyBatch classifies every feature value in s, writing class
// indices into out (grown if needed) and returning it. The decision is
// identical to calling Classify per element — same scores, same
// lowest-index tie-breaking — but the densities are evaluated one class
// at a time over the whole batch, which keeps the per-window cost at two
// float compares per class.
func (c *Classifier) ClassifyBatch(s []float64, out []int) []int {
	if cap(out) < len(s) {
		out = make([]int, len(s))
	}
	out = out[:len(s)]
	if len(s) == 0 {
		return out
	}
	best := make([]float64, len(s))
	scores := make([]float64, len(s))
	for j := range best {
		best[j] = math.Inf(-1)
		out[j] = 0
	}
	for i := range c.classes {
		scores = c.pdfBatch(i, s, scores)
		prior := c.classes[i].Prior
		for j, p := range scores {
			if score := prior * p; score > best[j] {
				best[j], out[j] = score, i
			}
		}
	}
	return out
}

// LogPosteriorsInto writes log P(ω_i | s) for every class into out
// (grown if needed) and returns it. It works in log space with a
// log-sum-exp normalization, so feature values deep in every class's tail
// (where linear densities underflow to zero) still yield finite,
// correctly normalized log posteriors whenever the densities expose
// LogPDF. If the value has zero density under every class, the log
// priors are returned. With a reused buffer, per-observation scoring
// loops — the population flow-correlation attack evaluates one posterior
// row per (user, flow) pair — stay allocation-free.
func (c *Classifier) LogPosteriorsInto(s float64, out []float64) []float64 {
	if cap(out) < len(c.classes) {
		out = make([]float64, len(c.classes))
	}
	lp := out[:len(c.classes)]
	for i, cl := range c.classes {
		var ld float64
		if l, ok := cl.Density.(LogDensity); ok {
			ld = l.LogPDF(s)
		} else {
			ld = math.Log(cl.Density.PDF(s))
		}
		lp[i] = math.Log(cl.Prior) + ld
	}
	z := logSumExp(lp)
	if math.IsInf(z, -1) {
		for i, cl := range c.classes {
			lp[i] = math.Log(cl.Prior)
		}
		return lp
	}
	for i := range lp {
		lp[i] -= z
	}
	return lp
}

// logSumExp returns log Σ exp(xs[i]) with the usual max-shift for
// numerical stability; -Inf when every term is -Inf.
func logSumExp(xs []float64) float64 {
	max := math.Inf(-1)
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		return max
	}
	var sum float64
	for _, x := range xs {
		sum += math.Exp(x - max)
	}
	return max + math.Log(sum)
}
