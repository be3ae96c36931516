// Package traffic provides the arrival processes that drive the study:
// payload sources at the paper's discrete rates (ω_l = 10 pps,
// ω_h = 40 pps), cross-traffic generators for the lab experiments
// (paper §5.2), and the diurnal utilization profile used to model campus
// and wide-area background load over a 24-hour capture (paper §5.3).
//
// Determinism contract: a Model consumes variates from the one
// xrand.Stream it was started on and holds by value, one pull at a
// time, so a source is a pure function of (parameters, stream) and
// composes freely — Pair merges two sources by arrival time without
// extra randomness, and session protocols carry source state (an on-off
// Model's burst phase) across observation windows. A copy of a started
// Model replays the original's gaps from the point of the copy. Sources
// are streaming with O(1) state; nothing is allocated per packet.
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
// window, which restarts modulated processes (on-off, train) in their
// initial state.
type Source interface {
	// Next returns the gap, in seconds, until the next arrival.
	Next() float64
	// Rate returns the long-run average arrival rate in packets/second.
	Rate() float64
}

// Model is the closed, tagged arrival process of the study, held by
// value with its one-word xrand.Stream inline: an array of Models holds
// no pointers, so the garbage collector never scans it. A warm
// population user holds its payload and cover as Models, and an exact
// router its cross traffic. The kinds are Poisson (exponential i.i.d.
// gaps: the default payload and the lab's cross-traffic generator), CBR
// (gaps of 1/rate, optionally perturbed by a uniform ±jitter/2: a sender
// clock not phase-locked to the gateway timer), on-off (a two-state
// Markov-modulated Poisson process with exponential holding times:
// bursty interactive payload, the worst case for the "adaptive" padding
// of Timmerman 1997) and train (Poisson train starts, each train a
// geometric number of packets a fixed intra-train gap apart: the
// burstier cross-traffic ablation). The zero Model is no source at all:
// it never fires (Next is +Inf, drawing nothing) and its Rate is 0, so
// it stands for an absent cover or a dedicated link.
type Model struct {
	rng xrand.Stream
	// a is the Poisson rate, the CBR interval, the on-off peak rate or
	// the train start rate; b is the CBR jitter, the on-off mean ON time
	// or the probability that another packet follows in a train; c is
	// the on-off mean OFF time or the intra-train gap.
	a, b, c float64
	left    float64 // on-off: time remaining in the current state
	kind    modelKind
	on      bool // on-off: in an ON period; train: inside a train
}

// modelKind tags a Model's process; the zero kind is no source.
type modelKind uint8

const (
	modelNone modelKind = iota
	modelPoisson
	modelCBR
	modelOnOff
	modelTrain
)

// NewPoisson returns a Poisson source at rate, started on a copy of
// rng's stream: the Model draws what rng would draw, and rng itself does
// not advance.
func NewPoisson(rate float64, rng *xrand.Rand) (*Model, error) {
	if rng == nil {
		return nil, errors.New("traffic: nil rng")
	}
	m, err := PoissonModel(rate)
	if err != nil {
		return nil, err
	}
	m.Start(rng.Stream)
	return &m, nil
}

// PoissonModel validates a Poisson source at rate (positive and finite)
// as a Model; Start starts it on a stream.
func PoissonModel(rate float64) (Model, error) {
	if err := positive("Poisson rate", rate); err != nil {
		return Model{}, err
	}
	return Model{a: rate, kind: modelPoisson}, nil
}

// CBRModel validates a CBR source at rate (positive and finite) with
// jitter (non-negative and below the interval 1/rate) as a Model; Start
// starts it on a stream.
func CBRModel(rate, jitter float64) (Model, error) {
	if err := positive("CBR rate", rate); err != nil {
		return Model{}, err
	}
	if !(jitter >= 0) || !(jitter < 1/rate) {
		return Model{}, fmt.Errorf("traffic: CBR jitter %v must be in [0, %v), the interval", jitter, 1/rate)
	}
	return Model{a: 1 / rate, b: jitter, kind: modelCBR}, nil
}

// OnOffModel validates an on-off source as a Model: peakRate, meanOn and
// meanOff must be positive and finite. Start starts it on a stream.
func OnOffModel(peakRate, meanOn, meanOff float64) (Model, error) {
	if err := errors.Join(positive("OnOff peak rate", peakRate), positive("OnOff mean ON time", meanOn),
		positive("OnOff mean OFF time", meanOff)); err != nil {
		return Model{}, err
	}
	return Model{a: peakRate, b: meanOn, c: meanOff, kind: modelOnOff}, nil
}

// TrainModel validates a packet-train source as a Model. rate is the
// packet rate (positive and finite); trains start at rate/meanLen, carry
// meanLen packets on average (finite and at least 1, and short enough
// that a train ends) and space their packets intraGap apart (finite and
// non-negative). Start starts it on a stream.
func TrainModel(rate, meanLen, intraGap float64) (Model, error) {
	if err := positive("Train rate", rate); err != nil {
		return Model{}, err
	}
	pContinue := 1 - 1/meanLen
	if !(meanLen >= 1) || !(pContinue < 1) {
		return Model{}, fmt.Errorf("traffic: Train mean length %v must be finite and at least 1", meanLen)
	}
	if !(intraGap >= 0) || math.IsInf(intraGap, 1) {
		return Model{}, fmt.Errorf("traffic: Train intra-train gap %v must be finite and non-negative", intraGap)
	}
	return Model{a: rate / meanLen, b: pContinue, c: intraGap, kind: modelTrain}, nil
}

// positive refuses a parameter that is not positive and finite, naming
// it.
func positive(name string, v float64) error {
	if !(v > 0) || math.IsInf(v, 1) {
		return fmt.Errorf("traffic: %s %v must be positive and finite", name, v)
	}
	return nil
}

// Start starts m on the stream rng, in place: every draw comes from
// rng, a train source begins outside a train, and an on-off source
// begins in an ON period, drawing its first holding time. A validated
// Model is a template; each user, flow or router starts a copy on its
// own stream. Starting the copy where it lives, rather than returning a
// started copy, keeps the stream's fresh stores from being reloaded by a
// wider copy, which stalls store forwarding.
func (m *Model) Start(rng xrand.Stream) {
	m.rng, m.on = rng, false
	if m.kind == modelOnOff {
		m.on, m.left = true, m.rng.Exp(m.b)
	}
}

// Next returns the gap until the next arrival. The kinds are tested in
// the order of how often they run, Poisson first: a switch over all
// four would compile to a binary search that puts Poisson, the hot
// payload and cover, behind two compares.
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
	if m.kind == modelTrain {
		return m.nextTrain()
	}
	return math.Inf(1)
}

// nextTrain returns the train gap: another packet of the current train
// follows with probability b; otherwise the next train starts an
// exponential gap later.
func (m *Model) nextTrain() float64 {
	if m.on && m.rng.Bernoulli(m.b) {
		return m.c
	}
	m.on = true
	return m.rng.Exp(1 / m.a)
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

// Rate returns the long-run average rate: an on-off source's is
// peakRate * meanOn/(meanOn+meanOff), and a train source's is its packet
// rate, ignoring the vanishing intra-gap contribution.
func (m *Model) Rate() float64 {
	switch m.kind {
	case modelPoisson:
		return m.a
	case modelCBR:
		return 1 / m.a
	case modelOnOff:
		return m.a * m.b / (m.b + m.c)
	case modelTrain:
		return m.a / (1 - m.b)
	}
	return 0
}

// None reports whether m is the zero Model, no source at all.
func (m *Model) None() bool { return m.kind == modelNone }

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
	// Every comparison is written to fail on NaN.
	if !(d.Trough >= 0) || !(d.Peak >= d.Trough) || !(d.Peak < 1) {
		return fmt.Errorf("traffic: invalid diurnal range [Trough %v, Peak %v], want 0 <= Trough <= Peak < 1", d.Trough, d.Peak)
	}
	if !(d.TroughHour >= 0 && d.TroughHour < 24) {
		return fmt.Errorf("traffic: TroughHour %v out of [0,24)", d.TroughHour)
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
