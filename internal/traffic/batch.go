package traffic

import "math"

// NextBatch fills gaps with the next len(gaps) gaps of m's process: it is
// exactly len(gaps) successive Next calls, bit for bit (enforced by
// batch_test.go). The memoryless kinds, Poisson and CBR, run inlined
// loops that hoist the per-call setup and keep the stream in a register;
// the Poisson loop inlines Stream.Exp, which the compiler does not, as
// the same expression (a validated rate is finite, so the mean is
// positive). Every other kind, the zero Model included, draws through
// Next once per gap. Next stays each kind's body: the gateway pulls one
// gap per payload arrival, so Next is the hot call, and a batched
// consumer (the exact router's cross traffic) gets the same gaps.
func (m *Model) NextBatch(gaps []float64) {
	switch m.kind {
	case modelPoisson:
		mean, rng := 1/m.a, m.rng
		for i := range gaps {
			gaps[i] = -mean * math.Log(rng.Float64Open())
		}
		m.rng = rng
	case modelCBR:
		interval, jitter := m.a, m.b
		if jitter == 0 {
			for i := range gaps {
				gaps[i] = interval
			}
			return
		}
		rng := m.rng
		for i := range gaps {
			gaps[i] = interval + jitter*(rng.Float64()-0.5)
		}
		m.rng = rng
	default:
		for i := range gaps {
			gaps[i] = m.Next()
		}
	}
}
