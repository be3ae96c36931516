// Package cascade scales the study from one padded link to a route: a
// flow crosses K padded hops in sequence — every deployed anonymity
// system (cascade mixes, onion-routing circuits) chains several relays —
// and each hop re-pads the traffic with its own timer policy (CIT/VIT)
// or batching mix and its own host jitter. A hop
// cannot distinguish upstream dummies from payload (the traffic is
// encrypted), so it forwards everything it receives: dummies injected at
// the entry propagate to the exit, and every hop's timer re-times the
// stream from scratch.
//
// The adversary is the strongest end-to-end observer studied against
// such routes (throughput fingerprinting, Mittal et al. 2011;
// long-lived-circuit correlation, Constantinides & Vassiliou 2026): it
// taps both the route's entry (the flow's unpadded arrivals into the
// first hop) and its exit (the padded stream leaving the last hop), and
// must match each unlabeled exit flow back to its entry flow. Correlate
// runs adversary.CorrelateFlows, the attack populations face too, which
// combines the two canonical signals — windowed rate-vector Pearson
// correlation along the path and the paper's PIAT class posteriors at
// the exit — and reports, besides matching accuracy, the degree of
// anonymity (normalized entropy of the adversary's per-flow match
// posterior) and the matched-overhead accounting (per-hop emitted rate
// and dummy fraction: the bandwidth price of every extra hop).
//
// The package follows the repository's determinism discipline: core
// derives every hop's randomness from (seed, class, flow, hopID) role
// streams in the cascade stream domain, so a route is a pure function of
// its flow identity and flows — the unit of parallelism — never share
// randomness. A route is a pull-driven pipeline: each packet flows
// through all hops on demand with no inter-hop buffering, the entry tap
// counts each arrival into its fingerprint row instead of keeping it,
// and the correlator reuses per-worker exit slabs, so pulling packets
// through a warmed route allocates nothing in steady state
// (core.TestCascadeRouteAllocFree).
package cascade

import (
	"errors"

	"linkpad/internal/adversary"
	"linkpad/internal/gateway"
	"linkpad/internal/netem"
	"linkpad/internal/obs"
	"linkpad/internal/xrand"
)

// HopStats is one hop's matched-overhead accounting after a run: how
// many packets the hop emitted onto its outgoing link and how many of
// them were dummies (always zero for batching mixes, which send no
// dummies — re-padding timer hops emit a dummy whenever their queue is
// empty at a fire).
type HopStats struct {
	// Policy names the hop's padding stage ("CIT", "VIT", "MIX").
	Policy string
	// Emitted is the number of packets the hop has emitted.
	Emitted uint64
	// Dummies is the number of emitted packets that were dummies.
	Dummies uint64
}

// HopProbe reads one hop's current HopStats; the route builder registers
// one per hop so the correlator can account overhead after observing the
// flow.
type HopProbe func() HopStats

// Recorder is the entry tap: the first hop's ArrivalTap calls Record
// with every payload arrival as the route is pulled, and Record counts
// each arrival at or before End into Row, the flow's entry fingerprint.
// CorrelateRoutes attaches both before the pull, End being the exit
// pull's own window end, so an arrival past a non-integral duration
// reaches neither side. A nil Row counts nothing.
type Recorder struct {
	Row []float64
	End float64
}

// Record counts one arrival time into Row.
func (r *Recorder) Record(t float64) {
	if t <= r.End {
		adversary.CountRate(r.Row, t)
	}
}

// StreamSource adapts an upstream hop's departure TimeStream to the
// traffic.Source contract the next hop's gateway consumes: Next returns
// the gap to the upstream's next departure, so the downstream hop sees
// arrivals at exactly the upstream's absolute departure times.
type StreamSource struct {
	src  netem.TimeStream
	last float64
	rate float64
}

// NewStreamSource wraps src; rate is the nominal long-run packet rate
// (1/τ for timer hops), reported by Rate for capacity accounting.
func NewStreamSource(src netem.TimeStream, rate float64) (*StreamSource, error) {
	if src == nil {
		return nil, errors.New("cascade: nil upstream stream")
	}
	if !(rate > 0) {
		return nil, errors.New("cascade: stream source rate must be positive")
	}
	return &StreamSource{src: src, rate: rate}, nil
}

// Next returns the inter-departure gap of the upstream stream.
func (s *StreamSource) Next() float64 {
	t := s.src.Next()
	gap := t - s.last
	s.last = t
	return gap
}

// Rate returns the nominal upstream packet rate.
func (s *StreamSource) Rate() float64 { return s.rate }

// phasedPolicy offsets a timer policy's first interval by a random
// phase, modeling unsynchronized per-hop clocks: real relays share no
// common timer grid, so consecutive hops' fire schedules hold an
// arbitrary (but per-route fixed) relative phase. Without this, every
// CIT hop's schedule would start at time zero and sit phase-locked on
// its upstream's grid boundary, where µs-scale jitter flips arrival
// counts — a synchronization artifact, not a property of the system.
type phasedPolicy struct {
	gateway.TimerPolicy
	offset float64
	done   bool
}

// NewPhasedPolicy wraps policy with an initial phase drawn uniformly
// from [0, policy.Mean()).
func NewPhasedPolicy(policy gateway.TimerPolicy, rng *xrand.Rand) (gateway.TimerPolicy, error) {
	if policy == nil {
		return nil, errors.New("cascade: nil timer policy")
	}
	if rng == nil {
		return nil, errors.New("cascade: nil rng")
	}
	return &phasedPolicy{TimerPolicy: policy, offset: rng.Float64() * policy.Mean()}, nil
}

// NextInterval returns the phase offset plus the first designed interval
// on the first call, then delegates.
func (p *phasedPolicy) NextInterval() float64 {
	if !p.done {
		p.done = true
		return p.offset + p.TimerPolicy.NextInterval()
	}
	return p.TimerPolicy.NextInterval()
}

// MaxInterval bounds emitted intervals including the one-off phase.
func (p *phasedPolicy) MaxInterval() float64 {
	return p.offset + p.TimerPolicy.MaxInterval()
}

// Route is one flow as every flow attack observes it — a population
// user's padded link, a multi-hop cascade route, or a watermarked flow
// (active.Flow embeds it): the exit stream (absolute departure times
// past the padding, link, and the exit tap imperfections), the entry
// recorder (counting ingress arrivals as Exit is pulled), and one
// overhead probe per padded hop. Like the other observation protocols it
// is a stateful stream: one pass per route, build a fresh route per run;
// it is not safe for concurrent use.
type Route struct {
	// Class is the flow's ground-truth payload-rate class (readable by
	// the adversary from the unpadded entry side).
	Class int
	// Exit is the padded departure stream at the route's exit tap.
	Exit netem.TimeStream
	// Entry counts ingress arrivals; nil for phantom training routes and
	// watermarked flows, whose entry side the adversary does not observe.
	Entry *Recorder
	// Hops holds one overhead probe per hop, entry hop first.
	Hops []HopProbe
	// Probe is the route's telemetry shard (nil when collection is
	// disabled); the goroutine pulling Exit owns it and flushes it when
	// the route's observation finishes.
	Probe *obs.Shard
}

// RouteBuilder produces flow f's route. Implementations must derive all
// randomness from the flow index so routes can be simulated in parallel
// deterministically (core provides one wired to the System description).
type RouteBuilder func(flow int) (*Route, error)

// Engine is a validated cascade description ready to run: the number of
// concurrent flows and the builder producing each flow's route.
type Engine struct {
	flows int
	hops  int
	build RouteBuilder
}

// NewEngine assembles an engine over `flows` end-to-end flows whose
// routes cross `hops` padded hops each (0 = unpadded passthrough, the
// no-countermeasure anchor).
func NewEngine(flows, hops int, build RouteBuilder) (*Engine, error) {
	if flows < 2 {
		return nil, errors.New("cascade: need at least two flows")
	}
	if hops < 0 {
		return nil, errors.New("cascade: negative hop count")
	}
	if build == nil {
		return nil, errors.New("cascade: nil route builder")
	}
	return &Engine{flows: flows, hops: hops, build: build}, nil
}

// Flows returns the number of end-to-end flows.
func (e *Engine) Flows() int { return e.flows }

// Hops returns the route length in padded hops.
func (e *Engine) Hops() int { return e.hops }

// Route builds flow f's route.
func (e *Engine) Route(f int) (*Route, error) {
	if f < 0 || f >= e.flows {
		return nil, errors.New("cascade: flow index out of range")
	}
	return e.build(f)
}
