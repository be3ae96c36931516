package core

import (
	"context"
	"errors"
	"fmt"

	"linkpad/internal/adversary"
	"linkpad/internal/analytic"
	"linkpad/internal/cascade"
	"linkpad/internal/netem"
	"linkpad/internal/obs"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// Cascade entry points: a System description plus a CascadeSpec
// instantiate the multi-hop route engine (internal/cascade) against the
// system's rate classes, jitter model and exit observation chain. Every
// hop's randomness derives from (seed, class, flow, hopID) role streams
// in the cascade stream domain (domains.go), so cascades never share
// randomness with the replica, session or population protocols, and
// flows — the unit of parallelism — never share randomness with each
// other.

// CascadePolicy selects one hop's padding stage.
type CascadePolicy int

// Supported hop policies.
const (
	// CascadeCIT is a constant-interval re-padding timer hop (default).
	CascadeCIT CascadePolicy = iota
	// CascadeVIT is a variable-interval re-padding timer hop.
	CascadeVIT
	// CascadeMix is a Chaum batch-of-K hop: no timer, no dummies.
	CascadeMix
)

// String names the policy.
func (p CascadePolicy) String() string {
	switch p {
	case CascadeCIT:
		return "CIT"
	case CascadeVIT:
		return "VIT"
	case CascadeMix:
		return "MIX"
	default:
		return "unknown"
	}
}

// CascadeHop describes one padded hop of a route on a dedicated (zero
// cross traffic) link. Each hop composes its own padding stage — a timer
// at the system Tau or a batch-of-defaultMixK mix — with the host jitter
// model shared with the rest of the system.
type CascadeHop struct {
	// Policy selects the hop's padding stage.
	Policy CascadePolicy
	// SigmaT is the interval standard deviation of a VIT hop (required
	// positive for VIT; must be zero otherwise).
	SigmaT float64
}

// CascadeSpec describes a multi-hop route topology layered on the
// system: the per-hop padding stages and the concurrent end-to-end flows
// the adversary observes.
type CascadeSpec struct {
	// Hops are the route's padded hops in order, entry hop first. An
	// empty route is the unpadded passthrough — the no-countermeasure
	// anchor, where the exit stream is the payload stream itself.
	Hops []CascadeHop
	// Flows is the number of concurrent end-to-end flows (at least 2).
	// The system's rate classes stripe across them in equal shares, like
	// population users.
	Flows int
}

// maxCascadeHops bounds the route length: the hop index must fit its
// stream-ID byte with room to spare, and routes past a few hops are
// already far beyond deployed cascade lengths.
const maxCascadeHops = 32

// validateCascade checks the spec against the system. The active
// protocol's cascade routes, built from the same CascadeHop description,
// go through it too.
func (s *System) validateCascade(spec CascadeSpec) error {
	if err := checkFinite(spec); err != nil {
		return err
	}
	if spec.Flows < 2 {
		return errors.New("core: cascade needs at least two flows")
	}
	if len(spec.Hops) > maxCascadeHops {
		return fmt.Errorf("core: cascade route has %d hops, limit %d", len(spec.Hops), maxCascadeHops)
	}
	for i, h := range spec.Hops {
		switch h.Policy {
		case CascadeCIT, CascadeMix:
			if h.SigmaT != 0 {
				return fmt.Errorf("core: cascade hop %d sets SigmaT on a %v policy", i, h.Policy)
			}
		case CascadeVIT:
			if !(h.SigmaT > 0) {
				return fmt.Errorf("core: cascade hop %d is VIT but SigmaT is not positive", i)
			}
		default:
			return fmt.Errorf("core: cascade hop %d has unknown policy %v", i, h.Policy)
		}
	}
	return nil
}

// hopPad resolves one cascade hop's padding policy: a random-phased
// timer at the system Tau, or a mix of defaultMixK.
func (s *System) hopPad(h CascadeHop) padPolicy {
	if h.Policy == CascadeMix {
		return padPolicy{name: h.Policy.String(), mixK: defaultMixK}
	}
	return padPolicy{name: h.Policy.String(), tau: s.cfg.Tau, sigmaT: h.SigmaT, phased: true}
}

// buildRoute assembles one flow's route: the class payload source feeds
// the entry hop, every later hop re-pads its upstream's departure stream
// (a hop cannot tell upstream dummies from payload), and the system's
// exit observation chain — network path and tap imperfections — follows
// the last hop. withEntry attaches the adversary's entry recorder to the
// first stage's arrival tap. All randomness derives from (seed, class,
// flow, hop) role streams, so the route is a pure function of the flow
// identity.
func (s *System) buildRoute(spec CascadeSpec, class, flow int, withEntry bool) (*cascade.Route, error) {
	// One telemetry shard per route: every hop, link fault and tap
	// imperfection on this flow's path counts into it, and whichever
	// goroutine pulls the route's exit flushes it.
	sh := obs.NewShard()
	var rec *cascade.Recorder
	var entryTap func(float64)
	var err error
	if withEntry {
		rec = &cascade.Recorder{}
		entryTap, err = s.entryTapWrap(rec.Record, class,
			cascadeStreamID(flow, 0, cascadeRoleEntryTap), sh)
		if err != nil {
			return nil, err
		}
	}
	payload, err := s.payloadModel(class)
	if err != nil {
		return nil, err
	}
	payload.Start(xrand.NewStream(s.streamSeed(class, cascadeStreamID(flow, 0, cascadeRolePayload))))
	exit, probes, err := s.hopChain(spec.Hops, &payload, func(h int) *xrand.Rand {
		return xrand.New(s.streamSeed(class, cascadeStreamID(flow, h, cascadeRoleHop)))
	}, xrand.New(s.streamSeed(class, cascadeStreamID(flow, len(spec.Hops), cascadeRoleExit))),
		entryTap, sh)
	if err != nil {
		return nil, err
	}
	return &cascade.Route{Class: class, Exit: exit, Entry: rec, Hops: probes, Probe: sh}, nil
}

// hopChain threads an arrival process through a sequence of re-padding
// hops, each built by padHop on its hopPad policy (a random-phased timer
// or a batching mix), with the next hop consuming the previous hop's
// departure stream as its payload. An empty hop list degenerates to the
// unpadded passthrough. The system's exit observation chain — network
// path and tap imperfections, exactly as for the single padded link —
// follows the last hop, drawing from exitRng. hopMaster supplies hop h's
// RNG, so the cascade and active protocols can drive the same
// construction from their own stream domains; entryTap, when non-nil,
// observes the first stage's payload arrivals. It returns the exit
// stream and one overhead probe per hop.
func (s *System) hopChain(hops []CascadeHop, payload traffic.Source, hopMaster func(h int) *xrand.Rand, exitRng *xrand.Rand, entryTap func(float64), sh *obs.Shard) (netem.TimeStream, []cascade.HopProbe, error) {
	var stream netem.TimeStream
	var probes []cascade.HopProbe
	var err error
	if len(hops) == 0 {
		stream = &rawLink{src: payload, tap: entryTap}
	}
	src := payload
	for h, hop := range hops {
		var tap func(float64)
		if h == 0 {
			tap = entryTap
		}
		p := s.hopPad(hop)
		// A timer hop emits at its own 1/τ; a mix hop forwards at its
		// input's rate. Resolve the nominal downstream rate before src is
		// rebound to this hop's output.
		outRate := src.Rate()
		if p.mixK == 0 {
			outRate = 1 / p.tau
		}
		var probe cascade.HopProbe
		if stream, probe, err = s.padHop(p, src, hopMaster(h), tap, sh); err != nil {
			return nil, nil, err
		}
		probes = append(probes, probe)
		if h < len(hops)-1 {
			if src, err = cascade.NewStreamSource(stream, outRate); err != nil {
				return nil, nil, err
			}
		}
	}
	if stream, err = s.observationChain(stream, exitRng, sh); err != nil {
		return nil, nil, err
	}
	return stream, probes, nil
}

// NewCascade instantiates the multi-hop route engine: Flows end-to-end
// flows, each crossing the spec's padded hops, with rate classes striped
// across the flows in equal shares. Every flow's route derives from
// (seed, class, flowID) role streams in the cascade domain.
func (s *System) NewCascade(spec CascadeSpec) (*cascade.Engine, error) {
	if err := s.validateCascade(spec); err != nil {
		return nil, err
	}
	cum := s.classCum()
	build := func(flow int) (*cascade.Route, error) {
		return s.buildRoute(spec, classOf(flow, spec.Flows, cum), flow, true)
	}
	return cascade.NewEngine(spec.Flows, len(spec.Hops), build)
}

// CascadeCorrConfig parameterizes the end-to-end cascade correlation
// attack run through a System: the attack-side knobs become the
// adversary.CorrConfig cascade.Correlate runs on, and TrainWindows sets
// the off-line training effort for the exit-side PIAT class classifiers.
type CascadeCorrConfig struct {
	// Duration is the per-flow observation time in stream seconds
	// (0 = 60).
	Duration float64
	// Features are the PIAT statistics the exit classifiers use; empty
	// runs a pure rate-correlation attack. Ignored for zero-hop routes
	// (an unpadded route needs no class fingerprint).
	Features []analytic.Feature
	// FeatureWindow is the PIAT count per feature value (0 = 200).
	FeatureWindow int
	// TrainWindows is the number of off-line training windows per class
	// for the classifiers (0 = 120).
	TrainWindows int
}

// withDefaults fills zero fields.
func (c CascadeCorrConfig) withDefaults() CascadeCorrConfig {
	if c.Duration == 0 {
		c.Duration = 60
	}
	if c.FeatureWindow == 0 {
		c.FeatureWindow = defaultFeatureWindow
	}
	if c.TrainWindows == 0 {
		c.TrainWindows = 120
	}
	return c
}

// validate checks a defaults-applied config's budgets for flows flows.
func (c CascadeCorrConfig) validate(flows int) error {
	return validateObservation(flows, c.TrainWindows, c.Duration, adversary.RateWindow, 2, 1)
}

// cascadeCorrelation runs the end-to-end correlation attack against a
// fresh cascade: the adversary first trains per-class PIAT classifiers
// on phantom flows (fresh realizations of the same route construction,
// so training observes the full multi-hop re-padding exactly as run time
// does), then observes every flow's entry and exit for cfg.Duration and
// matches exit flows to entry flows by throughput-fingerprint
// correlation plus exit class posteriors. Results are identical at any
// opts.Workers width; flows are the unit of parallelism. Run calls it on
// the spec Build validated and the defaults-applied config.
func (s *System) cascadeCorrelation(ctx context.Context, spec CascadeSpec, cfg CascadeCorrConfig, opts RunOptions) (*cascade.Result, error) {
	if len(spec.Hops) == 0 {
		cfg.Features = nil
	}

	// Off-line phase: per-class exit feature densities from phantom
	// flows, which reuse the population protocol's phantom index block —
	// a disjoint flow range of the cascade domain real flows never reach.
	corr, err := s.trainExitClassifiers(ctx, cfg.Features,
		cfg.TrainWindows, cfg.FeatureWindow, cfg.Duration, opts.Workers,
		func(class, flow int) (*cascade.Route, float64, error) {
			r, err := s.buildRoute(spec, class, flow, false)
			return r, 0, err
		})
	if err != nil {
		return nil, err
	}

	eng, err := s.NewCascade(spec)
	if err != nil {
		return nil, err
	}
	return cascade.Correlate(ctx, eng, corr)
}
