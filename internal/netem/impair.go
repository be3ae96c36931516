package netem

import (
	"errors"

	"linkpad/internal/obs"
	"linkpad/internal/xrand"
)

// Impairments (impair.go): seeded per-stream packet-level faults — i.i.d.
// and Gilbert-Elliott bursty loss, duplication, and bounded reordering —
// applicable to the forward path (packets really are lost or delayed) and
// to an adversary tap (the capture misses, double-records, or mis-orders
// observations; the wire is untouched).
//
// Determinism contract: one Impairment application consumes variates from
// the single *xrand.Rand it was built with, in upstream packet order and
// in a fixed per-packet draw order (Gilbert-Elliott transition, state
// loss, i.i.d. loss, duplication, reorder trigger, reorder depth), with
// each draw taken only when the corresponding knob is enabled. A disabled
// knob therefore consumes nothing, and an all-zero Impairment is
// bit-for-bit invisible.

// GilbertElliott parameterizes the two-state Markov (burst) loss model:
// the chain moves between a GOOD and a BAD state once per packet, and the
// packet is lost with the state's loss probability. It reproduces the
// correlated loss bursts of congested or wireless links that i.i.d. loss
// cannot.
type GilbertElliott struct {
	// PGoodBad is the per-packet transition probability GOOD -> BAD.
	PGoodBad float64 `json:"p_good_bad"`
	// PBadGood is the per-packet transition probability BAD -> GOOD.
	PBadGood float64 `json:"p_bad_good"`
	// LossGood is the loss probability in the GOOD state (usually 0).
	LossGood float64 `json:"loss_good,omitempty"`
	// LossBad is the loss probability in the BAD state.
	LossBad float64 `json:"loss_bad"`
}

// Validate checks the chain parameters. Loss probabilities are capped
// below 1 so an absorbing all-loss state cannot stall a pull-driven
// stream.
func (g GilbertElliott) Validate() error {
	// Every comparison is written to fail on NaN.
	if !(g.PGoodBad >= 0 && g.PGoodBad <= 1 && g.PBadGood >= 0 && g.PBadGood <= 1) {
		return errors.New("netem: Gilbert-Elliott transition probabilities must be in [0,1]")
	}
	if !(g.LossGood >= 0 && g.LossGood < 1 && g.LossBad >= 0 && g.LossBad < 1) {
		return errors.New("netem: Gilbert-Elliott loss probabilities must be in [0,1)")
	}
	return nil
}

// MeanLoss returns the stationary loss rate of the chain.
func (g GilbertElliott) MeanLoss() float64 {
	if g.PGoodBad == 0 && g.PBadGood == 0 {
		return g.LossGood // chain never leaves its (good) start state
	}
	pBad := g.PGoodBad / (g.PGoodBad + g.PBadGood)
	return (1-pBad)*g.LossGood + pBad*g.LossBad
}

// Impairment describes one seeded fault profile. The zero value is the
// identity (no impairment).
type Impairment struct {
	// LossProb drops each packet independently with this probability.
	LossProb float64 `json:"loss_prob,omitempty"`
	// GE, when non-nil, adds Gilbert-Elliott bursty loss on top of the
	// i.i.d. loss.
	GE *GilbertElliott `json:"ge,omitempty"`
	// DupProb emits each surviving packet twice with this probability
	// (same timestamp: a forwarding retransmit or a double capture).
	DupProb float64 `json:"dup_prob,omitempty"`
	// ReorderProb holds back each surviving packet with this probability;
	// the held packet is re-released after ReorderDepth later packets.
	ReorderProb float64 `json:"reorder_prob,omitempty"`
	// ReorderDepth is the maximum displacement, in packets, of a held
	// packet (0 with ReorderProb > 0 is invalid; 0 otherwise means the
	// knob is off).
	ReorderDepth int `json:"reorder_depth,omitempty"`
}

// Validate checks the profile.
func (im *Impairment) Validate() error {
	if im == nil {
		return nil
	}
	// Every probability comparison is written to fail on NaN.
	if !(im.LossProb >= 0 && im.LossProb < 1) {
		return errors.New("netem: impairment loss probability must be in [0,1)")
	}
	if im.GE != nil {
		if err := im.GE.Validate(); err != nil {
			return err
		}
	}
	if !(im.DupProb >= 0 && im.DupProb < 1) {
		return errors.New("netem: impairment duplication probability must be in [0,1)")
	}
	if !(im.ReorderProb >= 0 && im.ReorderProb < 1) {
		return errors.New("netem: impairment reorder probability must be in [0,1)")
	}
	if im.ReorderProb > 0 && im.ReorderDepth < 1 {
		return errors.New("netem: reordering needs a positive depth")
	}
	if im.ReorderDepth < 0 || im.ReorderDepth > 1024 {
		return errors.New("netem: reorder depth out of range [0,1024]")
	}
	if im.ReorderDepth > 0 && im.ReorderProb == 0 {
		return errors.New("netem: reorder depth set without a reorder probability")
	}
	return nil
}

// Enabled reports whether the profile does anything at all.
func (im *Impairment) Enabled() bool {
	return im != nil && (im.LossProb > 0 || im.GE != nil || im.DupProb > 0 || im.ReorderProb > 0)
}

// geChain is the running Gilbert-Elliott state.
type geChain struct {
	g   GilbertElliott
	bad bool
}

// lost advances the chain one packet and reports whether it is lost.
// Draw order: transition first, then the state's loss draw.
func (c *geChain) lost(rng *xrand.Rand) bool {
	p := c.g.PGoodBad
	if c.bad {
		p = c.g.PBadGood
	}
	if rng.Bernoulli(p) {
		c.bad = !c.bad
	}
	loss := c.g.LossGood
	if c.bad {
		loss = c.g.LossBad
	}
	return rng.Bernoulli(loss)
}

// heldPacket is one reordered packet waiting for release.
type heldPacket struct {
	remaining int // surviving packets still to pass before release
}

// Impairer applies an Impairment to a forward-path TimeStream. Losses
// remove packets; duplicates are emitted at the original's timestamp;
// a reordered packet is held back and re-released at the timestamp of
// the packet it lands behind (the displaced packet is delayed past its
// successors, which is what reordering means on a wire). Output times
// are therefore non-decreasing, like every other network element's.
type Impairer struct {
	upstream feed
	im       Impairment
	rng      *xrand.Rand
	ge       *geChain
	held     []heldPacket
	q        []float64 // pending emissions, FIFO
	qi       int
	buf      []float64 // reusable upstream chunk
	probe    *obs.Shard
	one      [1]float64
}

// NewImpairer wraps upstream with the impairment profile. A nil or
// all-zero profile is rejected — the caller should simply not wrap.
// probe, when non-nil, is a telemetry shard; losses, duplicates and
// held-back reorderings count into it.
func NewImpairer(upstream TimeStream, im *Impairment, rng *xrand.Rand, probe *obs.Shard) (*Impairer, error) {
	if upstream == nil {
		return nil, errors.New("netem: nil upstream")
	}
	if err := im.Validate(); err != nil {
		return nil, err
	}
	if !im.Enabled() {
		return nil, errors.New("netem: impairer needs a non-trivial impairment")
	}
	if rng == nil {
		return nil, errors.New("netem: nil rng")
	}
	p := &Impairer{upstream: newFeed(upstream), im: *im, rng: rng, probe: probe}
	if im.GE != nil {
		p.ge = &geChain{g: *im.GE}
	}
	if im.ReorderDepth > 0 {
		p.held = make([]heldPacket, 0, im.ReorderDepth)
	}
	return p, nil
}

// Next returns the next impaired packet time: a one-packet NextBatch.
func (p *Impairer) Next() float64 {
	p.NextBatch(p.one[:])
	return p.one[0]
}

// process runs one upstream packet through the impairment's per-packet
// draw sequence (GE transition+loss, i.i.d. loss, duplication, reorder
// trigger), appending every resulting emission to the pending queue.
func (p *Impairer) process(t float64) {
	if p.ge != nil && p.ge.lost(p.rng) {
		p.probe.Inc(obs.NetemDrop)
		return
	}
	if p.im.LossProb > 0 && p.rng.Bernoulli(p.im.LossProb) {
		p.probe.Inc(obs.NetemDrop)
		return
	}
	dup := p.im.DupProb > 0 && p.rng.Bernoulli(p.im.DupProb)
	if dup {
		p.probe.Inc(obs.NetemDup)
	}
	if p.im.ReorderProb > 0 && p.rng.Bernoulli(p.im.ReorderProb) && len(p.held) < cap(p.held) {
		p.probe.Inc(obs.NetemReorder)
		// Hold this packet back; it re-emerges at the timestamp of the
		// ReorderDepth-th surviving packet after it. A duplicate of a
		// held packet is held with it (the pair travels together).
		n := 1
		if dup {
			n = 2
		}
		for i := 0; i < n; i++ {
			p.held = append(p.held, heldPacket{remaining: p.im.ReorderDepth})
		}
		return
	}
	// This packet survives in place: emit it (and its duplicate), then
	// release any held packets whose displacement is exhausted, at this
	// packet's timestamp.
	p.q = append(p.q, t)
	if dup {
		p.q = append(p.q, t)
	}
	live := p.held[:0]
	for _, h := range p.held {
		h.remaining--
		if h.remaining <= 0 {
			p.q = append(p.q, t)
		} else {
			live = append(live, h)
		}
	}
	p.held = live
}

// drain moves pending emissions into dst[out:], returning the new out.
func (p *Impairer) drain(dst []float64, out int) int {
	for p.qi < len(p.q) && out < len(dst) {
		dst[out] = p.q[p.qi]
		out++
		p.qi++
	}
	if p.qi == len(p.q) {
		p.q = p.q[:0]
		p.qi = 0
	}
	return out
}

// NextBatch fills dst with the next len(dst) impaired packet times. The
// upstream is consumed in chunks sized to the outputs still owed;
// duplication can briefly overproduce, and the surplus stays queued for
// the next call, so the emitted sequence does not depend on how the
// caller chunks its pulls.
func (p *Impairer) NextBatch(dst []float64) {
	out := p.drain(dst, 0)
	for out < len(dst) {
		need := len(dst) - out
		if cap(p.buf) < need {
			p.buf = make([]float64, need)
		}
		chunk := p.buf[:need]
		p.upstream.fill(chunk)
		for _, t := range chunk {
			p.process(t)
		}
		out = p.drain(dst, out)
	}
}

// WrapRecordObs wraps an ingress-tap record callback (e.g. a
// cascade.Recorder) with the impairment: lost observations never reach
// the recorder, duplicated ones reach it twice, and a reordered one is
// recorded late — after up to ReorderDepth subsequent observations — with
// its original timestamp, so the recorded sequence is genuinely out of
// order, exactly what a mis-sequenced capture produces. Observations
// still held when the stream ends are never recorded (the capture
// stopped first); at most ReorderDepth observations are in flight.
// A nil or all-zero impairment returns record unchanged. Missed, doubled
// and mis-sequenced observations count into probe as NetemDrop/NetemDup/
// NetemReorder; a nil probe counts nothing.
func (im *Impairment) WrapRecordObs(record func(float64), rng *xrand.Rand, probe *obs.Shard) (func(float64), error) {
	if err := im.Validate(); err != nil {
		return nil, err
	}
	if !im.Enabled() {
		return record, nil
	}
	if record == nil {
		return nil, errors.New("netem: nil record callback")
	}
	if rng == nil {
		return nil, errors.New("netem: nil rng")
	}
	var ge *geChain
	if im.GE != nil {
		ge = &geChain{g: *im.GE}
	}
	type heldObs struct {
		remaining int
		t         float64
	}
	var held []heldObs
	if im.ReorderDepth > 0 {
		held = make([]heldObs, 0, im.ReorderDepth)
	}
	cfg := *im
	return func(t float64) {
		if ge != nil && ge.lost(rng) {
			probe.Inc(obs.NetemDrop)
			return
		}
		if cfg.LossProb > 0 && rng.Bernoulli(cfg.LossProb) {
			probe.Inc(obs.NetemDrop)
			return
		}
		dup := cfg.DupProb > 0 && rng.Bernoulli(cfg.DupProb)
		if dup {
			probe.Inc(obs.NetemDup)
		}
		if cfg.ReorderProb > 0 && rng.Bernoulli(cfg.ReorderProb) && len(held) < cap(held) {
			probe.Inc(obs.NetemReorder)
			n := 1
			if dup {
				n = 2
			}
			for i := 0; i < n; i++ {
				held = append(held, heldObs{remaining: cfg.ReorderDepth, t: t})
			}
			return
		}
		record(t)
		if dup {
			record(t)
		}
		live := held[:0]
		for _, h := range held {
			h.remaining--
			if h.remaining <= 0 {
				record(h.t)
			} else {
				live = append(live, h)
			}
		}
		held = live
	}, nil
}
