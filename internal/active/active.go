// Package active models the active traffic-analysis adversary: instead
// of passively tapping the padded link, the attacker controls a vantage
// point on the *payload side* of the countermeasure — a compromised ISP,
// guard relay, or messaging server (Bahramali et al. 2020, "Practical
// Traffic Analysis Attacks on Secure Messaging Applications") — and
// injects a secret, keyed perturbation ("watermark") into a flow before
// it enters the padding, hoping to recognize the key again at the exit
// tap and thereby link the two observation points through every
// countermeasure in between.
//
// Two injection mechanisms are modeled, both keyed by a cyclic ±1 chip
// schedule (Key) of period·chips seconds:
//
//   - delay-jitter watermarks (DelaySource): payload packets that arrive
//     during a marked chip slot are delayed by a constant amplitude,
//     imprinting an interval-centroid pattern on the flow's timing;
//   - chaff probes (ChaffSource): the attacker mints its own payload
//     packets — indistinguishable from real ones once encrypted — as a
//     keyed on/off Poisson process, imprinting a rate pattern.
//
// Detection (correlate.go) is a matched filter: the exit stream is
// reduced to per-slot statistics (packet count, PIAT variance, in-slot
// centroid) and each channel is correlated against the key's chip
// sequence; scores are calibrated into z-values against decoy keys, so
// the detector self-adjusts to every countermeasure's noise floor. The
// per-slot PIAT-variance channel is the paper's own leak turned into a
// signal: under timer padding the wire rate is constant, but chaff
// modulates the gateway's compound blocking delay (gateway.JitterModel),
// so marked slots carry measurably noisier PIATs.
//
// The package follows the repository's determinism discipline: core
// derives every key, chaff stream and chain element from (seed, class,
// flowID, role) streams in the active stream domain, so a watermarked
// flow is a pure function of its flow identity and flows — the unit of
// parallelism — never share randomness. Detection reuses per-worker
// observation slabs and per-flow stat vectors sized once, so a warmed
// detection pass allocates only the per-flow observation records.
package active

import (
	"errors"

	"linkpad/internal/cascade"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// Mode selects the watermark injection mechanism.
type Mode int

// Supported watermark modes.
const (
	// ModeDelay imposes a keyed constant delay on marked-slot payload.
	ModeDelay Mode = iota
	// ModeChaff injects attacker-minted packets in a keyed on/off pattern.
	ModeChaff
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeDelay:
		return "delay"
	case ModeChaff:
		return "chaff"
	default:
		return "unknown"
	}
}

// Key is a watermark key: a cyclic chip schedule assigning each time
// slot of the given period a chip of +1 (marked) or −1 (unmarked). The
// schedule repeats every Chips()·Period() seconds, so a key supports
// observations of any duration and any start offset.
type Key struct {
	period float64
	chips  []float64 // ±1 per slot of one cycle
	on     int       // number of +1 chips
}

// NewKey draws a key of `chips` fair ±1 chips over slots of `period`
// seconds. The chip draws consume exactly `chips` Bernoulli variates of
// rng, so a key is a pure function of its role stream.
func NewKey(chips int, period float64, rng *xrand.Rand) (*Key, error) {
	if chips < 2 {
		return nil, errors.New("active: key needs at least two chips")
	}
	if !(period > 0) {
		return nil, errors.New("active: chip period must be positive")
	}
	if rng == nil {
		return nil, errors.New("active: nil rng")
	}
	k := &Key{period: period, chips: make([]float64, chips)}
	for i := range k.chips {
		if rng.Bernoulli(0.5) {
			k.chips[i] = 1
			k.on++
		} else {
			k.chips[i] = -1
		}
	}
	return k, nil
}

// Chips returns the key length in chips (one schedule cycle).
func (k *Key) Chips() int { return len(k.chips) }

// Period returns the chip slot duration in seconds.
func (k *Key) Period() float64 { return k.period }

// Chip returns the chip of slot index s (cyclic; s must be >= 0).
func (k *Key) Chip(s int) float64 { return k.chips[s%len(k.chips)] }

// OnFraction returns the fraction of marked (+1) chips — the duty cycle
// of the injection, which prices the watermark's overhead.
func (k *Key) OnFraction() float64 { return float64(k.on) / float64(len(k.chips)) }

// Marked reports whether absolute time t falls in a marked slot.
func (k *Key) Marked(t float64) bool {
	if t < 0 {
		return false
	}
	return k.Chip(int(t/k.period)) > 0
}

// InjectStats accounts what the attacker injected into one flow — the
// cost side of the active attack, mirroring the defender's overhead
// accounting.
type InjectStats struct {
	// Chaff is the number of attacker-minted packets generated.
	Chaff uint64
	// Payload is the number of payload packets that passed the injector
	// (delay mode only).
	Payload uint64
	// Delayed is the number of payload packets that were delayed.
	Delayed uint64
	// DelaySum is the total injected delay in seconds.
	DelaySum float64
}

// DelaySource imposes the delay-jitter watermark on a payload source:
// every arrival falling in a marked slot of the key is shifted later by
// the amplitude, and departures are kept strictly increasing (a shifted
// packet cannot overtake the packets behind it — the attacker's queue
// preserves order). It implements traffic.Source, so it composes in
// front of any gateway exactly like the unwatermarked payload would.
type DelaySource struct {
	src     traffic.Source
	key     *Key
	amp     float64
	now     float64 // arrival clock of the wrapped source
	lastOut float64 // last emitted (possibly delayed) arrival time
	stats   InjectStats
}

// NewDelaySource wraps src with a delay watermark of the given key and
// amplitude (seconds, positive).
func NewDelaySource(src traffic.Source, key *Key, amplitude float64) (*DelaySource, error) {
	if src == nil {
		return nil, errors.New("active: nil payload source")
	}
	if key == nil {
		return nil, errors.New("active: nil watermark key")
	}
	if !(amplitude > 0) {
		return nil, errors.New("active: delay amplitude must be positive")
	}
	return &DelaySource{src: src, key: key, amp: amplitude}, nil
}

// minGap keeps watermarked arrivals strictly increasing when a marked
// packet's shift would land it on top of an unmarked successor (1 ns,
// far below every noise scale in the system).
const minGap = 1e-9

// Next returns the gap to the next (possibly delayed) arrival.
func (d *DelaySource) Next() float64 {
	d.now += d.src.Next()
	out := d.now
	d.stats.Payload++
	if d.key.Marked(d.now) {
		out += d.amp
		d.stats.Delayed++
		d.stats.DelaySum += d.amp
	}
	if out <= d.lastOut {
		out = d.lastOut + minGap
	}
	gap := out - d.lastOut
	d.lastOut = out
	return gap
}

// Rate returns the payload source's rate (the watermark adds no packets).
func (d *DelaySource) Rate() float64 { return d.src.Rate() }

// Stats returns a copy of the injection counters.
func (d *DelaySource) Stats() InjectStats { return d.stats }

// ChaffSource generates the chaff-probe watermark: a Poisson stream at
// the given rate that runs only during the key's marked slots and is
// silent otherwise — an on/off pattern the attacker transmits as
// ordinary (encrypted) payload packets. It implements traffic.Source;
// merge it with the real payload (traffic.Pair) to inject.
//
// The process is an inhomogeneous Poisson process simulated exactly: an
// exponential clock advances in "on-time" (the measure of marked slots)
// and each event is mapped back to absolute time through the key's
// cyclic schedule.
type ChaffSource struct {
	key    *Key
	rate   float64 // rate while a marked slot is active
	rng    *xrand.Rand
	onTime float64 // cumulative on-time of the last event
	last   float64 // absolute time of the last event
	stats  InjectStats
}

// NewChaffSource creates a chaff stream at the given in-slot rate
// (packets/second, positive) keyed by key.
func NewChaffSource(key *Key, rate float64, rng *xrand.Rand) (*ChaffSource, error) {
	if key == nil {
		return nil, errors.New("active: nil watermark key")
	}
	if !(rate > 0) {
		return nil, errors.New("active: chaff rate must be positive")
	}
	if key.on == 0 {
		return nil, errors.New("active: key has no marked slots to carry chaff")
	}
	if rng == nil {
		return nil, errors.New("active: nil rng")
	}
	return &ChaffSource{key: key, rate: rate, rng: rng}, nil
}

// Next returns the gap to the next chaff packet, crossing silent
// unmarked slots as needed.
func (c *ChaffSource) Next() float64 {
	c.onTime += c.rng.Exp(1 / c.rate)
	t := c.absTime(c.onTime)
	gap := t - c.last
	c.last = t
	c.stats.Chaff++
	return gap
}

// absTime maps a cumulative on-time offset to absolute time: full key
// cycles first, then a walk over the cycle's marked slots.
func (c *ChaffSource) absTime(on float64) float64 {
	k := c.key
	cycleOn := float64(k.on) * k.period
	cycles := int(on / cycleOn)
	rem := on - float64(cycles)*cycleOn
	t := float64(cycles) * float64(len(k.chips)) * k.period
	for s := 0; s < len(k.chips); s++ {
		if k.chips[s] < 0 {
			continue
		}
		if rem < k.period {
			return t + float64(s)*k.period + rem
		}
		rem -= k.period
	}
	// rem landed exactly on the cycle boundary (measure-zero float edge):
	// carry into the next cycle's first marked slot.
	return t + float64(len(k.chips))*k.period + rem
}

// Rate returns the long-run chaff rate: in-slot rate × duty cycle.
func (c *ChaffSource) Rate() float64 { return c.rate * c.key.OnFraction() }

// Stats returns a copy of the injection counters.
func (c *ChaffSource) Stats() InjectStats { return c.stats }

// Flow is one watermarked flow as the active adversary observes it: the
// route past the countermeasure and the exit tap (cascade.Route, with no
// entry recorder: the attacker injects at the entry but matches by key),
// the flow's own watermark key, the observation start time (0 except
// for warmed continuous sessions), and the injection probe. Like every
// observation protocol it is a stateful stream: one pass per flow,
// build a fresh flow per run; it is not safe for concurrent use.
type Flow struct {
	cascade.Route
	// Key is the watermark key the attacker injected into this flow.
	Key *Key
	// Start is the observation start time: packets at or before Start
	// were consumed as warm-up and the detector must not assume it saw
	// them. Zero for fresh (replica-style) flows.
	Start float64
	// Inject reads the attacker's injection counters; nil for phantom
	// training flows, which carry no watermark.
	Inject func() InjectStats
}

// FlowBuilder produces flow f's watermarked observation. Implementations
// must derive all randomness from the flow index so flows can be
// simulated in parallel deterministically (core provides one wired to
// the System description).
type FlowBuilder func(flow int) (*Flow, error)

// Engine is a validated active-adversary scenario ready to run: the
// concurrent watermarked flows, the shared chip geometry, the decoy keys
// calibrating the detector, and the builder producing each flow.
type Engine struct {
	flows  int
	hops   int
	mode   Mode
	chips  int
	period float64
	decoys []*Key
	build  FlowBuilder
}

// NewEngine assembles an engine over `flows` watermarked flows crossing
// `hops` padded hops each (0 = unpadded passthrough). Every flow's key
// must share the (chips, period) geometry; decoys are the adversary's
// calibration keys (at least 8, same geometry).
func NewEngine(flows, hops int, mode Mode, chips int, period float64, decoys []*Key, build FlowBuilder) (*Engine, error) {
	if flows < 2 {
		return nil, errors.New("active: need at least two flows")
	}
	if hops < 0 {
		return nil, errors.New("active: negative hop count")
	}
	if mode != ModeDelay && mode != ModeChaff {
		return nil, errors.New("active: unknown watermark mode")
	}
	if chips < 2 || !(period > 0) {
		return nil, errors.New("active: invalid chip geometry")
	}
	if len(decoys) < 8 {
		return nil, errors.New("active: need at least eight decoy keys")
	}
	for _, d := range decoys {
		if d == nil || d.Chips() != chips || d.Period() != period {
			return nil, errors.New("active: decoy keys must share the chip geometry")
		}
	}
	if build == nil {
		return nil, errors.New("active: nil flow builder")
	}
	return &Engine{flows: flows, hops: hops, mode: mode, chips: chips,
		period: period, decoys: decoys, build: build}, nil
}

// Flows returns the number of watermarked flows.
func (e *Engine) Flows() int { return e.flows }

// Flow builds flow f's observation.
func (e *Engine) Flow(f int) (*Flow, error) {
	if f < 0 || f >= e.flows {
		return nil, errors.New("active: flow index out of range")
	}
	fl, err := e.build(f)
	if err != nil {
		return nil, err
	}
	if fl.Key == nil || fl.Key.Chips() != e.chips || fl.Key.Period() != e.period {
		return nil, errors.New("active: flow key does not share the engine's chip geometry")
	}
	return fl, nil
}
