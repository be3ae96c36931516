// Package traffic provides the arrival processes that drive the study:
// payload sources at the paper's discrete rates (ω_l = 10 pps,
// ω_h = 40 pps), cross-traffic generators for the lab experiments
// (paper §5.2), and the diurnal utilization profile used to model campus
// and wide-area background load over a 24-hour capture (paper §5.3).
//
// Determinism contract: a Source consumes variates from the single
// *xrand.Rand it was built with, one pull at a time, so a source is a
// pure function of (parameters, rng) and composes freely — Pair merges
// two sources by arrival time without extra randomness, and session
// protocols carry source state (an OnOff's burst phase) across
// observation windows. Sources are streaming with O(1) state; nothing is allocated
// per packet.
package traffic

import (
	"errors"
	"fmt"
	"math"

	"linkpad/internal/xrand"
)

// Source generates an arrival process as a sequence of inter-arrival gaps.
//
// A Source is a stateful stream: successive Next calls continue one
// realization of the process, so a long-lived Source carries its arrival
// state (burst phase, clock phase, train position) across consecutive
// observation windows. The continuous-stream session protocol relies on
// this; the i.i.d.-replica protocol instead builds a fresh Source per
// window, which restarts modulated processes (OnOff, Train) in their
// initial state.
type Source interface {
	// Next returns the gap, in seconds, until the next arrival.
	Next() float64
	// Rate returns the long-run average arrival rate in packets/second.
	Rate() float64
}

// Poisson is a Poisson arrival process: exponential i.i.d. gaps.
// This is the default payload model — user traffic with memoryless
// arrivals at one of the paper's discrete rates.
type Poisson struct {
	rate float64
	rng  *xrand.Rand
}

// NewPoisson creates a Poisson source with the given rate (> 0) in
// packets/second.
func NewPoisson(rate float64, rng *xrand.Rand) (*Poisson, error) {
	if !(rate > 0) {
		return nil, errors.New("traffic: Poisson rate must be positive")
	}
	if rng == nil {
		return nil, errors.New("traffic: nil rng")
	}
	return &Poisson{rate: rate, rng: rng}, nil
}

// Next returns an exponential gap with mean 1/rate.
func (p *Poisson) Next() float64 { return p.rng.Exp(1 / p.rate) }

// Rate returns the configured rate.
func (p *Poisson) Rate() float64 { return p.rate }

// CBR is a constant-bit-rate source: deterministic gaps of 1/rate,
// optionally perturbed by a small uniform jitter (±Jitter/2) to model a
// sender clock that is not phase-locked to the gateway timer.
type CBR struct {
	interval float64
	jitter   float64
	rng      *xrand.Rand
}

// NewCBR creates a CBR source with the given rate (> 0) and jitter
// half-range >= 0. A nil rng is allowed when jitter is zero.
func NewCBR(rate, jitter float64, rng *xrand.Rand) (*CBR, error) {
	if !(rate > 0) {
		return nil, errors.New("traffic: CBR rate must be positive")
	}
	if jitter < 0 {
		return nil, errors.New("traffic: CBR jitter must be non-negative")
	}
	if jitter >= 1/rate {
		return nil, errors.New("traffic: CBR jitter must be smaller than the interval")
	}
	if jitter > 0 && rng == nil {
		return nil, errors.New("traffic: nil rng with non-zero jitter")
	}
	return &CBR{interval: 1 / rate, jitter: jitter, rng: rng}, nil
}

// Next returns the next gap.
func (c *CBR) Next() float64 {
	if c.jitter == 0 {
		return c.interval
	}
	return c.interval + c.jitter*(c.rng.Float64()-0.5)
}

// Rate returns the configured rate.
func (c *CBR) Rate() float64 { return 1 / c.interval }

// OnOff is a two-state Markov-modulated Poisson process: during ON
// periods arrivals are Poisson at PeakRate; OFF periods are silent.
// State holding times are exponential. It models bursty interactive
// payload, the worst case for "adaptive" padding schemes discussed in the
// paper's related work (Timmerman 1997).
type OnOff struct {
	peakRate  float64
	meanOn    float64
	meanOff   float64
	rng       *xrand.Rand
	on        bool
	stateLeft float64 // time remaining in the current state
}

// NewOnOff creates an on-off source. peakRate, meanOn and meanOff must be
// positive. The process starts in the ON state.
func NewOnOff(peakRate, meanOn, meanOff float64, rng *xrand.Rand) (*OnOff, error) {
	if !(peakRate > 0) || !(meanOn > 0) || !(meanOff > 0) {
		return nil, errors.New("traffic: OnOff parameters must be positive")
	}
	if rng == nil {
		return nil, errors.New("traffic: nil rng")
	}
	s := &OnOff{peakRate: peakRate, meanOn: meanOn, meanOff: meanOff, rng: rng, on: true}
	s.stateLeft = rng.Exp(meanOn)
	return s, nil
}

// Next returns the gap until the next arrival, crossing silent OFF
// periods as needed.
func (s *OnOff) Next() float64 {
	var gap float64
	for {
		if s.on {
			g := s.rng.Exp(1 / s.peakRate)
			if g <= s.stateLeft {
				s.stateLeft -= g
				return gap + g
			}
			gap += s.stateLeft
			s.on = false
			s.stateLeft = s.rng.Exp(s.meanOff)
		} else {
			gap += s.stateLeft
			s.on = true
			s.stateLeft = s.rng.Exp(s.meanOn)
		}
	}
}

// Rate returns the long-run average rate: peakRate * meanOn/(meanOn+meanOff).
func (s *OnOff) Rate() float64 {
	return s.peakRate * s.meanOn / (s.meanOn + s.meanOff)
}

// Train is a batch-Poisson ("packet train") process: train starts arrive
// as a Poisson process; each train carries a geometrically distributed
// number of packets (mean TrainLen >= 1) separated by a short fixed
// intra-train gap. Used as a burstier cross-traffic ablation.
type Train struct {
	trainRate float64 // trains per second
	pContinue float64 // P(another packet follows) = 1 - 1/meanLen
	intraGap  float64
	rng       *xrand.Rand
	inTrain   bool
}

// NewTrain creates a packet-train source. rate is the *packet* rate; the
// train arrival rate is rate/meanLen.
func NewTrain(rate, meanLen, intraGap float64, rng *xrand.Rand) (*Train, error) {
	if !(rate > 0) || meanLen < 1 || intraGap < 0 {
		return nil, errors.New("traffic: invalid Train parameters")
	}
	if rng == nil {
		return nil, errors.New("traffic: nil rng")
	}
	return &Train{
		trainRate: rate / meanLen,
		pContinue: 1 - 1/meanLen,
		intraGap:  intraGap,
		rng:       rng,
	}, nil
}

// Next returns the next gap, alternating between intra-train gaps and
// exponential inter-train gaps.
func (t *Train) Next() float64 {
	if t.inTrain && t.rng.Bernoulli(t.pContinue) {
		return t.intraGap
	}
	t.inTrain = true
	return t.rng.Exp(1 / t.trainRate)
}

// Rate returns the long-run packet rate, ignoring the vanishing intra-gap
// contribution.
func (t *Train) Rate() float64 { return t.trainRate / (1 - t.pContinue) }

// Pair merges two arrival processes into one: the output stream holds
// both sources' arrivals in time order, as if they shared one wire. It
// is the one payload+cover merge of the repository: a flow's payload
// with its cover, the attacker's chaff with the flow it marks (nested
// for payload, chaff and cover), and every warm population user, which
// holds its Pair by value. The second source may be nil; the merge is
// then the first source's arrivals alone. NextFrom additionally reports
// which source produced each arrival.
//
// Like every Source, a Pair is a stateful continuous stream: each
// source's clock advances independently and the merge order is a pure
// function of the two streams, so a Pair of deterministic sources is
// itself deterministic.
type Pair struct {
	a, b Source
	// ta and tb are the absolute times of a's and b's next arrivals (tb
	// is unused when b is nil); now is the absolute time of the last
	// merged arrival.
	ta, tb, now float64
}

// NewPair starts the merge of a (non-nil) and b (nil for none): each
// source draws its first gap, a first, which is its first arrival's
// absolute time.
func NewPair(a, b Source) Pair {
	p := Pair{a: a, b: b, ta: a.Next()}
	if b != nil {
		p.tb = b.Next()
	}
	return p
}

// NextFrom returns the gap until the next arrival of the merged stream
// and whether the second source produced it. The first source wins an
// exact tie. The source that fired draws its next arrival at the
// arrival's time plus its next gap.
func (p *Pair) NextFrom() (gap float64, second bool) {
	t := p.ta
	if p.b != nil && p.tb < t {
		t, second = p.tb, true
	}
	gap = t - p.now
	p.now = t
	if second {
		p.tb = t + p.b.Next()
	} else {
		p.ta = t + p.a.Next()
	}
	return gap, second
}

// Next returns the gap until the next arrival of the merged stream.
func (p *Pair) Next() float64 {
	gap, _ := p.NextFrom()
	return gap
}

// Rate returns the sum of the two sources' rates.
func (p *Pair) Rate() float64 {
	r := p.a.Rate()
	if p.b != nil {
		r += p.b.Rate()
	}
	return r
}

// Diurnal is a 24-hour background-load profile: utilization varies
// smoothly between Trough (at TroughHour) and Peak (12 hours later),
// following a raised cosine. It models the day/night congestion swing the
// paper observes on the campus and Internet paths (Fig. 8).
type Diurnal struct {
	// Trough is the minimum utilization, reached at TroughHour.
	Trough float64
	// Peak is the maximum utilization, reached 12 h after TroughHour.
	Peak float64
	// TroughHour is the quietest hour of day in [0, 24), e.g. 3 for 3 AM.
	TroughHour float64
}

// Validate checks the profile parameters.
func (d Diurnal) Validate() error {
	if d.Trough < 0 || d.Peak < d.Trough || d.Peak >= 1 {
		return fmt.Errorf("traffic: invalid diurnal range [%v, %v]", d.Trough, d.Peak)
	}
	if d.TroughHour < 0 || d.TroughHour >= 24 {
		return fmt.Errorf("traffic: trough hour %v out of [0,24)", d.TroughHour)
	}
	return nil
}

// At returns the utilization at the given hour of day (wrapping modulo 24).
func (d Diurnal) At(hour float64) float64 {
	if d.Peak == d.Trough {
		// Constant profile: skip the trig. This path runs once per packet
		// per hop in the network simulator, so it must stay branch-cheap.
		return d.Trough
	}
	if hour < 0 || hour >= 24 {
		// math.Mod is the exact identity on [0, 24), so the common case —
		// hours pre-wrapped by the caller or runs shorter than a day —
		// skips the division. Out-of-range phases (multi-day runs) still
		// wrap exactly as before.
		hour = math.Mod(hour, 24) // keep the phase computation finite
	}
	phase := 2 * math.Pi * (hour - d.TroughHour) / 24
	activity := 0.5 * (1 - math.Cos(phase)) // 0 at trough, 1 at trough+12h
	return d.Trough + (d.Peak-d.Trough)*activity
}

// Constant returns a Diurnal profile that is flat at u.
func Constant(u float64) Diurnal { return Diurnal{Trough: u, Peak: u} }
