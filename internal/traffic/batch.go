package traffic

import "math"

// Batched generation (batch.go): the memoryless sources (Poisson, CBR)
// can fill a flat slab of inter-arrival gaps in one call, hoisting the
// per-call setup out of the loop. A NextBatch(gaps) call is exactly
// equivalent to len(gaps) successive Next() calls: each source owns its
// *xrand.Rand and the batch loop replays the identical per-call draws,
// so the generated stream is bit-identical (enforced by batch_test.go).
// Every source's Next stays its body: the gateway pulls one gap per
// payload arrival, so Next is the hot call. Stateful sources (Model,
// Train, Pair, Gated) do not batch; a batched consumer falls back
// to their Next.

// BatchSource is a Source that can generate a batch of gaps in one call.
// NextBatch fills gaps entirely; it is equivalent to len(gaps) Next
// calls.
type BatchSource interface {
	Source
	NextBatch(gaps []float64)
}

// NextBatch fills gaps with i.i.d. exponential inter-arrival gaps. The
// loop inlines rng.Exp, which the compiler does not: for mean > 0 it is
// the same expression, and an infinite rate (mean 0) draws nothing, as
// Exp(0) does.
func (p *Poisson) NextBatch(gaps []float64) {
	mean := 1 / p.rate
	if mean == 0 {
		clear(gaps)
		return
	}
	rng := p.rng
	for i := range gaps {
		gaps[i] = -mean * math.Log(rng.Float64Open())
	}
}

// NextBatch fills gaps with jittered constant-rate gaps.
func (c *CBR) NextBatch(gaps []float64) {
	if c.jitter == 0 {
		for i := range gaps {
			gaps[i] = c.interval
		}
		return
	}
	interval, jitter, rng := c.interval, c.jitter, c.rng
	for i := range gaps {
		gaps[i] = interval + jitter*(rng.Float64()-0.5)
	}
}
