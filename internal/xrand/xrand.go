// Package xrand provides a small, fast, deterministic random number
// generator used by every stochastic component of the simulator.
//
// All simulation components take an explicit *Rand so that experiments are
// exactly reproducible given a seed, and so that independent components
// (payload source, gateway jitter, each router's cross traffic) can be
// driven by independent streams derived from a single master seed.
//
// The core generator is SplitMix64 (Steele, Lea, Flood 2014): a 64-bit
// counter-based generator with excellent statistical quality for
// simulation workloads, a one-word state, and trivially cheap splitting.
package xrand

import "math"

// Rand is a deterministic pseudo-random number generator.
// It is not safe for concurrent use; create one per goroutine via Split.
type Rand struct {
	Stream
	// cached spare normal variate from the polar method
	spare    float64
	hasSpare bool
}

// Stream is a Rand without the normal-variate cache: the SplitMix64
// state alone, one word, drawing everything a Rand draws but normal
// variates. Holders of many streams that never draw a normal keep
// Streams by value: a population's warm users hold two or three each.
// A Rand's Stream continues exactly as the Rand would.
type Stream struct {
	state uint64
}

// NewStream returns the stream New(seed) starts, by value.
func NewStream(seed uint64) Stream { return Stream{state: seed} }

// golden is the SplitMix64 increment (2^64 / phi, rounded to odd).
const golden = 0x9e3779b97f4a7c15

// New returns a generator seeded with seed. Distinct seeds give
// independent-looking streams.
func New(seed uint64) *Rand {
	return &Rand{Stream: Stream{state: seed}}
}

// Split derives a new, statistically independent generator from r.
// The derived stream depends on r's current state, so calling Split
// repeatedly yields distinct generators.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0x6a09e667f3bcc909)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Stream) Uint64() uint64 {
	r.state += golden
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform variate in [0, 1) with 53 bits of precision.
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform variate in (0, 1), never exactly zero,
// suitable for logarithm-based transforms.
func (r *Stream) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 computes the 128-bit product of a and b.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + t>>32 + (t&mask+aLo*bHi)>>32
	return hi, lo
}

// Norm returns a standard normal variate (mean 0, variance 1) using the
// Marsaglia polar method with spare caching.
func (r *Rand) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// Normal returns a normal variate with the given mean and standard
// deviation. It panics if sigma is negative.
func (r *Rand) Normal(mean, sigma float64) float64 {
	if sigma < 0 {
		panic("xrand: Normal with negative sigma")
	}
	return mean + sigma*r.Norm()
}

// TruncNormal returns a normal variate with the given mean and standard
// deviation, truncated (by rejection) to be >= lo. The truncation point
// must not be more than about 6 sigma above the mean or sampling becomes
// pathologically slow; for the simulator's use (interval floors far in the
// left tail) rejection is essentially free.
func (r *Rand) TruncNormal(mean, sigma, lo float64) float64 {
	if sigma == 0 {
		if mean < lo {
			return lo
		}
		return mean
	}
	for i := 0; i < 1024; i++ {
		x := r.Normal(mean, sigma)
		if x >= lo {
			return x
		}
	}
	// Pathological truncation: fall back to the floor rather than spin.
	return lo
}

// Exp returns an exponential variate with the given mean.
// It panics if mean is negative; a zero mean yields zero.
func (r *Stream) Exp(mean float64) float64 {
	if mean < 0 {
		panic("xrand: Exp with negative mean")
	}
	if mean == 0 {
		return 0
	}
	return -mean * math.Log(r.Float64Open())
}

// Geometric returns a variate K >= 0 with P(K = k) = (1-p) * p^k,
// i.e. the number of failures before the first success when the success
// probability is 1-p. This is the ladder-count distribution used by the
// Pollaczek-Khinchine waiting-time sampler. It panics unless 0 <= p < 1.
func (r *Stream) Geometric(p float64) int {
	if p < 0 || p >= 1 {
		panic("xrand: Geometric requires 0 <= p < 1")
	}
	if p == 0 {
		return 0
	}
	// Inversion: K = floor(log(U) / log(p)). The ladder sampler calls this
	// once per packet per hop, and at the utilizations studied K = 0 — that
	// is U > p — dominates, so resolve that case from the uniform alone
	// before paying for two logarithms.
	u := r.Float64Open()
	if u > p {
		return 0
	}
	k := math.Floor(math.Log(u) / math.Log(p))
	if k < 0 {
		return 0
	}
	return int(k)
}

// Bernoulli returns true with probability p.
func (r *Stream) Bernoulli(p float64) bool {
	return r.Float64() < p
}
