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
// protocols carry source state (an on-off Model's burst phase) across
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
// window, which restarts modulated processes (on-off, Train) in their
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
	if err := checkPoisson(rate); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("traffic: nil rng")
	}
	return &Poisson{rate: rate, rng: rng}, nil
}

// checkPoisson validates a Poisson rate.
func checkPoisson(rate float64) error {
	if !(rate > 0) {
		return errors.New("traffic: Poisson rate must be positive")
	}
	return nil
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
	if err := checkCBR(rate, jitter); err != nil {
		return nil, err
	}
	if jitter > 0 && rng == nil {
		return nil, errors.New("traffic: nil rng with non-zero jitter")
	}
	return &CBR{interval: 1 / rate, jitter: jitter, rng: rng}, nil
}

// checkCBR validates a CBR rate and jitter.
func checkCBR(rate, jitter float64) error {
	if !(rate > 0) {
		return errors.New("traffic: CBR rate must be positive")
	}
	if jitter < 0 {
		return errors.New("traffic: CBR jitter must be non-negative")
	}
	if jitter >= 1/rate {
		return errors.New("traffic: CBR jitter must be smaller than the interval")
	}
	return nil
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

// Model is a closed, tagged arrival process held by value: a Poisson,
// CBR or on-off source with its one-word xrand.Stream inline. An array
// of Models holds no pointers, so the garbage collector never scans it;
// a warm population user holds its payload and cover as Models. The zero
// Model is no source at all: it never fires (Next is +Inf, drawing
// nothing) and its Rate is 0, so it stands for an absent cover.
//
// The on-off process exists only as a Model: a two-state
// Markov-modulated Poisson process, Poisson arrivals at the peak rate
// during ON periods and silence during OFF periods, with exponential
// state holding times. It models bursty interactive payload, the worst
// case for "adaptive" padding schemes discussed in the paper's related
// work (Timmerman 1997). The Poisson and CBR kinds draw exactly what a
// Poisson or CBR built on the same stream draws.
type Model struct {
	rng xrand.Stream
	// a is the Poisson rate, the CBR interval or the on-off peak rate;
	// b is the CBR jitter or the on-off mean ON time; c is the on-off
	// mean OFF time.
	a, b, c float64
	left    float64 // on-off: time remaining in the current state
	kind    modelKind
	on      bool // on-off: in an ON period
}

// modelKind tags a Model's process; the zero kind is no source.
type modelKind uint8

const (
	modelNone modelKind = iota
	modelPoisson
	modelCBR
	modelOnOff
)

// PoissonModel validates a Poisson source at rate as a Model; Start
// starts it on a stream.
func PoissonModel(rate float64) (Model, error) {
	if err := checkPoisson(rate); err != nil {
		return Model{}, err
	}
	return Model{a: rate, kind: modelPoisson}, nil
}

// CBRModel validates a CBR source at rate with jitter as a Model; Start
// starts it on a stream.
func CBRModel(rate, jitter float64) (Model, error) {
	if err := checkCBR(rate, jitter); err != nil {
		return Model{}, err
	}
	return Model{a: 1 / rate, b: jitter, kind: modelCBR}, nil
}

// OnOffModel validates an on-off source as a Model: peakRate, meanOn and
// meanOff must be positive. Start starts it on a stream.
func OnOffModel(peakRate, meanOn, meanOff float64) (Model, error) {
	if !(peakRate > 0) || !(meanOn > 0) || !(meanOff > 0) {
		return Model{}, errors.New("traffic: OnOff parameters must be positive")
	}
	return Model{a: peakRate, b: meanOn, c: meanOff, kind: modelOnOff}, nil
}

// Start starts m on the stream rng, in place: every draw comes from
// rng, and an on-off source begins in an ON period, drawing its first
// holding time. A validated Model is a template; each user or flow
// starts a copy on its own stream. Starting the copy where it lives,
// rather than returning a started copy, keeps the stream's fresh stores
// from being reloaded by a wider copy, which stalls store forwarding.
func (m *Model) Start(rng xrand.Stream) {
	m.rng = rng
	if m.kind == modelOnOff {
		m.on, m.left = true, m.rng.Exp(m.b)
	}
}

// Next returns the gap until the next arrival.
func (m *Model) Next() float64 {
	switch m.kind {
	case modelPoisson:
		return m.rng.Exp(1 / m.a)
	case modelCBR:
		if m.b == 0 {
			return m.a
		}
		return m.a + m.b*(m.rng.Float64()-0.5)
	case modelOnOff:
		return m.nextOnOff()
	}
	return math.Inf(1)
}

// nextOnOff returns the on-off gap until the next arrival, crossing
// silent OFF periods as needed.
func (m *Model) nextOnOff() float64 {
	var gap float64
	for {
		if m.on {
			g := m.rng.Exp(1 / m.a)
			if g <= m.left {
				m.left -= g
				return gap + g
			}
			gap += m.left
			m.on = false
			m.left = m.rng.Exp(m.c)
		} else {
			gap += m.left
			m.on = true
			m.left = m.rng.Exp(m.b)
		}
	}
}

// Rate returns the long-run average rate; an on-off source's is
// peakRate * meanOn/(meanOn+meanOff).
func (m *Model) Rate() float64 {
	switch m.kind {
	case modelPoisson:
		return m.a
	case modelCBR:
		return 1 / m.a
	case modelOnOff:
		return m.a * m.b / (m.b + m.c)
	}
	return 0
}

// None reports whether m is the zero Model, no source at all.
func (m *Model) None() bool { return m.kind == modelNone }

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
// for payload, chaff and cover), and every warm population user. A Pair
// holds both sources by value, so a Pair of Models holds no pointers;
// Dynamic admits any Source. A second source that is the zero Model
// never fires, and the merge is then the first source's arrivals alone.
// NextFrom additionally reports which source produced each arrival.
//
// Like every Source, a Pair is a stateful continuous stream: each
// source's clock advances independently and the merge order is a pure
// function of the two streams, so a Pair of deterministic sources is
// itself deterministic.
type Pair[A, B any, PA SourceOf[A], PB SourceOf[B]] struct {
	a A
	b B
	// ta and tb are the absolute times of a's and b's next arrivals; now
	// is the absolute time of the last merged arrival.
	ta, tb, now float64
}

// SourceOf is the constraint on a Pair's source types: a value type S
// whose pointer is a Source.
type SourceOf[S any] interface {
	*S
	Source
}

// Dynamic holds any Source as a Pair member, drawing through the Source
// interface.
type Dynamic struct{ Source }

// NewPair starts the merge of a and b (see Start).
func NewPair[A, B any, PA SourceOf[A], PB SourceOf[B]](a A, b B) Pair[A, B, PA, PB] {
	var p Pair[A, B, PA, PB]
	p.Start(a, b)
	return p
}

// Start starts the merge of a and b in place: each source draws its
// first gap, a first, which is its first arrival's absolute time. The
// sources draw through their type's methods, which escape analysis
// cannot follow, so a Pair started where it lives (a population user's
// arena slot) costs no allocation, while one started on the stack moves
// to the heap.
func (p *Pair[A, B, PA, PB]) Start(a A, b B) {
	p.a, p.b, p.now = a, b, 0
	p.ta = PA(&p.a).Next()
	p.tb = PB(&p.b).Next()
}

// NextFrom returns the gap until the next arrival of the merged stream
// and whether the second source produced it. The first source wins an
// exact tie. The source that fired draws its next arrival at the
// arrival's time plus its next gap.
func (p *Pair[A, B, PA, PB]) NextFrom() (gap float64, second bool) {
	t := p.ta
	if p.tb < t {
		t, second = p.tb, true
	}
	gap = t - p.now
	p.now = t
	if second {
		p.tb = t + PB(&p.b).Next()
	} else {
		p.ta = t + PA(&p.a).Next()
	}
	return gap, second
}

// Next returns the gap until the next arrival of the merged stream.
func (p *Pair[A, B, PA, PB]) Next() float64 {
	gap, _ := p.NextFrom()
	return gap
}

// Rate returns the sum of the two sources' rates.
func (p *Pair[A, B, PA, PB]) Rate() float64 {
	return PA(&p.a).Rate() + PB(&p.b).Rate()
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
