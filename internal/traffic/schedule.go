package traffic

import (
	"errors"
	"math"
	"sort"

	"linkpad/internal/xrand"
)

// OnOffSchedule is a seeded alternating availability schedule: exponential
// UP periods (mean MeanUp) alternate with exponential DOWN periods (mean
// MeanDown). It is the simulator's churn clock: a population user churns
// on one, in the round engine and on its padded link, where Gated drops
// its offline arrivals and netem.GateStream darkens the link. It follows
// the repository's determinism discipline: the whole schedule is a pure
// function of the *xrand.Rand it was built with, so a schedule needs no
// serialized state; rebuilding it from the same stream seed reproduces it
// exactly.
//
// The initial state is drawn from the stationary distribution (up with
// probability MeanUp/(MeanUp+MeanDown)); exponential holding times are
// memoryless, so the residual first period needs no special handling and
// time zero is not biased toward availability.
//
// Transition times are generated lazily and memoized, so queries may move
// backward in time (binary search over the memoized prefix) as well as
// forward. A schedule is not safe for concurrent use.
type OnOffSchedule struct {
	rng      *xrand.Rand
	meanUp   float64
	meanDown float64
	startUp  bool
	trans    []float64 // memoized state-transition times, increasing
}

// NewOnOffSchedule creates a schedule with the given mean up and down
// durations (both positive) drawing from rng.
func NewOnOffSchedule(meanUp, meanDown float64, rng *xrand.Rand) (*OnOffSchedule, error) {
	if !(meanUp > 0) || !(meanDown > 0) {
		return nil, errors.New("traffic: schedule mean durations must be positive")
	}
	if rng == nil {
		return nil, errors.New("traffic: nil rng")
	}
	s := &OnOffSchedule{rng: rng, meanUp: meanUp, meanDown: meanDown}
	s.startUp = rng.Bernoulli(meanUp / (meanUp + meanDown))
	return s, nil
}

// Clone returns an independent copy of the schedule: the memoized
// transitions and the stream at its current position. The copy answers
// every query exactly as the original does, so two goroutines can each
// query their own copy of one schedule.
func (s *OnOffSchedule) Clone() *OnOffSchedule {
	c := *s
	rng := *s.rng
	c.rng = &rng
	c.trans = append([]float64(nil), s.trans...)
	return &c
}

// UpFraction returns the stationary availability MeanUp/(MeanUp+MeanDown).
func (s *OnOffSchedule) UpFraction() float64 {
	return s.meanUp / (s.meanUp + s.meanDown)
}

// stateOf reports whether interval k (the k-th period, starting at 0) is up.
func (s *OnOffSchedule) stateOf(k int) bool {
	return s.startUp == (k%2 == 0)
}

// extendTo memoizes transition times until the last one exceeds t.
func (s *OnOffSchedule) extendTo(t float64) {
	for len(s.trans) == 0 || s.trans[len(s.trans)-1] <= t {
		k := len(s.trans) // index of the period the new transition ends
		mean := s.meanDown
		if s.stateOf(k) {
			mean = s.meanUp
		}
		var start float64
		if k > 0 {
			start = s.trans[k-1]
		}
		d := s.rng.Exp(mean)
		if !(d > 0) {
			// Exp can return subnormal ~0 draws; keep transitions strictly
			// increasing so interval lookup stays well defined.
			d = math.SmallestNonzeroFloat64
		}
		s.trans = append(s.trans, start+d)
	}
}

// UpAt reports whether the schedule is up at time t (>= 0).
func (s *OnOffSchedule) UpAt(t float64) bool {
	s.extendTo(t)
	k := sort.SearchFloat64s(s.trans, t)
	// trans[k] is the first transition > t (ties land in the later period,
	// consistent with periods being half-open [start, end)).
	if k < len(s.trans) && s.trans[k] == t {
		k++
	}
	return s.stateOf(k)
}

// Gated filters a Source through an availability schedule: arrivals that
// fall in DOWN periods are dropped (the sender is offline), and the gap
// sequence re-bases on the surviving arrivals. It models a churning user's
// ingress traffic; the long-run rate scales by the schedule's up fraction.
type Gated struct {
	src      Source
	sched    *OnOffSchedule
	now      float64 // absolute time of the last generated arrival
	lastEmit float64 // absolute time of the last surviving arrival
}

// NewGated wraps src with the schedule.
func NewGated(src Source, sched *OnOffSchedule) (*Gated, error) {
	if src == nil {
		return nil, errors.New("traffic: nil source")
	}
	if sched == nil {
		return nil, errors.New("traffic: nil schedule")
	}
	return &Gated{src: src, sched: sched}, nil
}

// Next returns the gap until the next surviving arrival.
func (g *Gated) Next() float64 {
	for {
		g.now += g.src.Next()
		if g.sched.UpAt(g.now) {
			gap := g.now - g.lastEmit
			g.lastEmit = g.now
			return gap
		}
	}
}

// Rate returns the long-run surviving rate: the source rate scaled by the
// schedule's stationary up fraction.
func (g *Gated) Rate() float64 {
	return g.src.Rate() * g.sched.UpFraction()
}
