// Package sizes implements the packet-size dimension of traffic
// camouflage. The main paper assumes all packets have a constant size
// (§3.2 remark 3) and defers variable sizes to the companion work [7];
// this package builds that extension: application packet-size profiles,
// size-padding schemes (none, bucket, constant), the induced byte
// overhead, and the adversary's size-based classification attack that
// constant-size padding is there to defeat.
//
// Determinism contract: profile sampling consumes one variate per
// packet from the caller's *xrand.Rand, and Detect derives each trial's
// randomness from its trial index, so attack results are byte-identical
// at any worker count. The per-trial loop reuses count buffers and
// allocates nothing in steady state.
package sizes

import (
	"errors"
	"fmt"
	"sort"

	"linkpad/internal/bayes"
	"linkpad/internal/stats"
	"linkpad/internal/xrand"
)

// Profile is a discrete packet-size distribution characterizing an
// application's traffic (sizes in bytes).
type Profile struct {
	sizes []int
	probs []float64
	cdf   []float64
	mean  float64
}

// NewProfile creates a profile from parallel size/probability slices.
// Sizes must be positive and strictly increasing; probabilities positive,
// summing to ~1 (they are normalized).
func NewProfile(sizes []int, probs []float64) (*Profile, error) {
	if len(sizes) == 0 || len(sizes) != len(probs) {
		return nil, errors.New("sizes: need matching non-empty sizes and probs")
	}
	var total float64
	for i, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("sizes: size %d must be positive", s)
		}
		if i > 0 && sizes[i] <= sizes[i-1] {
			return nil, errors.New("sizes: sizes must be strictly increasing")
		}
		if !(probs[i] > 0) {
			return nil, errors.New("sizes: probabilities must be positive")
		}
		total += probs[i]
	}
	p := &Profile{
		sizes: append([]int(nil), sizes...),
		probs: make([]float64, len(probs)),
		cdf:   make([]float64, len(probs)),
	}
	acc := 0.0
	for i := range probs {
		p.probs[i] = probs[i] / total
		acc += p.probs[i]
		p.cdf[i] = acc
		p.mean += p.probs[i] * float64(sizes[i])
	}
	p.cdf[len(p.cdf)-1] = 1 // guard against rounding
	return p, nil
}

// Sample draws one packet size.
func (p *Profile) Sample(r *xrand.Rand) int {
	u := r.Float64()
	i := sort.SearchFloat64s(p.cdf, u)
	if i >= len(p.sizes) {
		i = len(p.sizes) - 1
	}
	return p.sizes[i]
}

// Interactive returns an SSH/telnet-like profile: dominated by tiny
// keystroke/echo packets (the paper's reference [18] attack surface).
func Interactive() *Profile {
	p, err := NewProfile(
		[]int{64, 128, 256, 576, 1500},
		[]float64{0.55, 0.25, 0.10, 0.07, 0.03})
	if err != nil {
		panic(err) // static data
	}
	return p
}

// Bulk returns an FTP-like profile: mostly full MTU segments plus ACKs.
func Bulk() *Profile {
	p, err := NewProfile(
		[]int{64, 576, 1500},
		[]float64{0.30, 0.05, 0.65})
	if err != nil {
		panic(err)
	}
	return p
}

// Padder maps a raw packet size to the transmitted (padded) size.
// Implementations never shrink a packet.
type Padder interface {
	// Pad returns the wire size for a packet of the given raw size.
	Pad(size int) int
}

// NoPad transmits raw sizes: the insecure baseline.
type NoPad struct{}

// Pad returns size unchanged.
func (NoPad) Pad(size int) int { return size }

// ConstantPad pads every packet to a fixed target — the main paper's
// constant-size assumption made into a mechanism. Packets larger than the
// target pass through unchanged (choose the target at or above the MTU).
type ConstantPad struct {
	Target int
}

// NewConstantPad creates a constant padder with a positive target.
func NewConstantPad(target int) (ConstantPad, error) {
	if target <= 0 {
		return ConstantPad{}, errors.New("sizes: constant pad target must be positive")
	}
	return ConstantPad{Target: target}, nil
}

// Pad returns max(size, Target).
func (c ConstantPad) Pad(size int) int {
	if size > c.Target {
		return size
	}
	return c.Target
}

// BucketPad rounds sizes up to the next bucket boundary: the classic
// bandwidth/privacy compromise.
type BucketPad struct {
	buckets []int
}

// NewBucketPad creates a bucket padder; buckets must be positive and
// strictly increasing.
func NewBucketPad(buckets []int) (*BucketPad, error) {
	if len(buckets) == 0 {
		return nil, errors.New("sizes: need at least one bucket")
	}
	for i, b := range buckets {
		if b <= 0 {
			return nil, errors.New("sizes: buckets must be positive")
		}
		if i > 0 && buckets[i] <= buckets[i-1] {
			return nil, errors.New("sizes: buckets must be strictly increasing")
		}
	}
	return &BucketPad{buckets: append([]int(nil), buckets...)}, nil
}

// Pad rounds size up to the smallest bucket that fits; oversize packets
// pass through unchanged.
func (b *BucketPad) Pad(size int) int {
	i := sort.SearchInts(b.buckets, size)
	if i >= len(b.buckets) {
		return size
	}
	return b.buckets[i]
}

// Overhead returns the exact byte inflation E[pad(S)] / E[S] of applying
// the padder to the profile.
func Overhead(p *Profile, pd Padder) float64 {
	var padded float64
	for i, s := range p.sizes {
		padded += p.probs[i] * float64(pd.Pad(s))
	}
	return padded / p.mean
}

// AttackConfig parameterizes the size-based classification attack.
type AttackConfig struct {
	// WindowSize is the number of packets per classified sample.
	WindowSize int
	// TrainWindows and EvalWindows are per-class window counts.
	TrainWindows, EvalWindows int
	// Seed drives the experiment.
	Seed uint64
}

// Result reports one size attack.
type Result struct {
	// DetectionRate is the fraction of windows whose application profile
	// was identified correctly.
	DetectionRate float64
	// Confusion is the full matrix.
	Confusion *bayes.Confusion
	// Degenerate reports that the padded size distributions left no
	// usable feature spread (perfect size camouflage) and the nearest-mean
	// fallback was used.
	Degenerate bool
}

// meanSizeFeature reduces a window of wire sizes to its mean.
func meanSizeFeature(window []int) float64 {
	var sum int
	for _, s := range window {
		sum += s
	}
	return float64(sum) / float64(len(window))
}

// Detect runs the paper-style off-line training + run-time classification
// against the padded size stream of each application profile, using the
// window mean wire size as the feature statistic.
func Detect(labels []string, profiles []*Profile, pd Padder, cfg AttackConfig) (*Result, error) {
	if len(labels) != len(profiles) || len(labels) < 2 {
		return nil, errors.New("sizes: need at least two labeled profiles")
	}
	if cfg.WindowSize < 2 || cfg.TrainWindows < 2 || cfg.EvalWindows < 1 {
		return nil, errors.New("sizes: invalid attack configuration")
	}
	if pd == nil {
		return nil, errors.New("sizes: nil padder")
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	collect := func(p *Profile, rng *xrand.Rand, windows int) []float64 {
		feats := make([]float64, windows)
		buf := make([]int, cfg.WindowSize)
		for w := range feats {
			for i := range buf {
				buf[i] = pd.Pad(p.Sample(rng))
			}
			feats[w] = meanSizeFeature(buf)
		}
		return feats
	}

	train := make([][]float64, len(profiles))
	for i, p := range profiles {
		train[i] = collect(p, xrand.New(seed^uint64(i+1)*0x9e3779b97f4a7c15), cfg.TrainWindows)
	}

	cls, err := bayes.TrainKDE(labels, train, nil)
	degenerate := err != nil
	var means []float64
	if degenerate {
		// Perfect (or per-class constant) camouflage: KDE has nothing to
		// fit. Fall back to nearest class mean; identical means resolve
		// to the first class, i.e. guessing for balanced evaluation.
		means = make([]float64, len(train))
		for i, f := range train {
			means[i] = stats.Mean(f)
		}
	}
	classify := func(s float64) int {
		if !degenerate {
			return cls.Classify(s)
		}
		best, bestDist := 0, -1.0
		for i, m := range means {
			d := s - m
			if d < 0 {
				d = -d
			}
			if bestDist < 0 || d < bestDist {
				best, bestDist = i, d
			}
		}
		return best
	}

	cm := bayes.NewConfusion(labels)
	for i, p := range profiles {
		rng := xrand.New(seed ^ uint64(i+101)*0xbf58476d1ce4e5b9)
		for _, f := range collect(p, rng, cfg.EvalWindows) {
			cm.Add(i, classify(f))
		}
	}
	return &Result{
		DetectionRate: cm.DetectionRate(),
		Confusion:     cm,
		Degenerate:    degenerate,
	}, nil
}
