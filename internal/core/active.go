package core

import (
	"context"
	"errors"
	"fmt"

	"linkpad/internal/active"
	"linkpad/internal/analytic"
	"linkpad/internal/cascade"
	"linkpad/internal/obs"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// Active-adversary entry points: a System description plus an ActiveSpec
// instantiate the watermark engine (internal/active) against any of the
// four observation protocols — the adversary injects a keyed
// perturbation into each flow's payload *before* the countermeasure and
// tries to recognize the key again at the exit tap. Every flow's key,
// chaff stream and chain element derive from (seed, class, flowID, role)
// streams in the active stream domain (domains.go), so watermarked flows
// never share randomness with the passive protocols or with each other,
// and results are byte-identical at any worker count.

// ActiveProtocol selects which observation protocol the watermarked
// flows cross — the scenario axis of the active study. The same flow
// index under two protocols is a different realization (the protocol is
// part of the stream ID), so scenarios never share randomness.
type ActiveProtocol int

// Supported active scenarios.
const (
	// ActiveReplica crosses the system's single padded link from a cold
	// start, the replica-protocol analogue (default).
	ActiveReplica ActiveProtocol = iota
	// ActiveSession crosses the same link but observes it in steady
	// state: a warm-up span of the continuous stream is discarded before
	// the matched filter starts, the session-protocol analogue.
	ActiveSession
	// ActivePopulation merges defensive cover traffic into each flow
	// before the padding, the population-protocol analogue (the cover is
	// minted gateway-side, past the attacker's vantage point, so it is
	// never watermarked).
	ActivePopulation
	// ActiveCascade routes each flow through a chain of re-padding hops
	// (CascadeHop), the cascade-protocol analogue.
	ActiveCascade
)

// String names the protocol.
func (p ActiveProtocol) String() string {
	switch p {
	case ActiveReplica:
		return "replica"
	case ActiveSession:
		return "session"
	case ActivePopulation:
		return "population"
	case ActiveCascade:
		return "cascade"
	default:
		return "unknown"
	}
}

// ActiveSpec describes an active-adversary scenario layered on the
// system: who is watermarked (Flows), how (Mode, Amplitude) and what the
// flows cross (Protocol plus its knobs). Every key is activeChips chips
// of activePeriod seconds, and the detector calibrates against
// activeDecoys decoy keys.
type ActiveSpec struct {
	// Protocol selects the observation protocol the flows cross.
	Protocol ActiveProtocol
	// Flows is the number of concurrent watermarked flows (at least 2).
	// The system's rate classes stripe across them in equal shares, like
	// population users.
	Flows int
	// Mode selects the injection mechanism: delay-jitter watermarks
	// (active.ModeDelay) or chaff probes (active.ModeChaff).
	Mode active.Mode
	// Amplitude is the watermark strength: the constant delay in seconds
	// for ModeDelay, the in-slot chaff rate in packets/second for
	// ModeChaff. Required positive.
	Amplitude float64
	// Raw bypasses the padding — the unpadded anchor. The flow still
	// crosses the network path and the tap, so comparisons isolate the
	// countermeasure alone. Not valid for ActiveCascade (an unpadded
	// route is the Raw replica scenario).
	Raw bool
	// CoverToPPS adds defensive cover that pads the flow's send rate up
	// to an absolute target, the matched-overhead form (ActivePopulation
	// only).
	CoverToPPS float64
	// Hops is the route crossed by every flow (ActiveCascade only; at
	// least one hop).
	Hops []CascadeHop
}

// The watermark geometry of every active scenario: keys of activeChips
// chips, each activePeriod seconds long, calibrated against activeDecoys
// decoy keys. ActiveSession flows discard activeSessionWarmup seconds of
// stream before the matched filter starts.
const (
	activeChips         = 32
	activePeriod        = 0.5
	activeDecoys        = 16
	activeSessionWarmup = 2.0
)

// validateActive checks the spec against the system.
func (s *System) validateActive(spec ActiveSpec) error {
	if err := checkFinite(spec); err != nil {
		return err
	}
	if spec.Flows < 2 {
		return errors.New("core: active scenario needs at least two flows")
	}
	if spec.Mode != active.ModeDelay && spec.Mode != active.ModeChaff {
		return errors.New("core: unknown watermark mode")
	}
	if !(spec.Amplitude > 0) {
		return errors.New("core: watermark amplitude must be positive")
	}
	if spec.CoverToPPS < 0 {
		return errors.New("core: active cover rate must be non-negative")
	}
	if spec.Protocol != ActivePopulation && spec.CoverToPPS > 0 {
		return fmt.Errorf("core: cover traffic requires the population protocol, not %v", spec.Protocol)
	}
	switch spec.Protocol {
	case ActiveReplica, ActiveSession, ActivePopulation:
		if len(spec.Hops) > 0 {
			return fmt.Errorf("core: Hops requires the cascade protocol, not %v", spec.Protocol)
		}
	case ActiveCascade:
		if spec.Raw {
			return errors.New("core: Raw is not valid for the cascade protocol (use a Raw replica scenario)")
		}
		if len(spec.Hops) == 0 {
			return errors.New("core: cascade protocol needs at least one hop")
		}
		return s.validateCascade(CascadeSpec{Hops: spec.Hops, Flows: spec.Flows})
	default:
		return fmt.Errorf("core: unknown active protocol %d", spec.Protocol)
	}
	return nil
}

// paddedHops returns the number of padded elements a flow crosses — the
// length of the overhead probe vector.
func (a ActiveSpec) paddedHops() int {
	if a.Protocol == ActiveCascade {
		return len(a.Hops)
	}
	if a.Raw {
		return 0
	}
	return 1
}

// activeRand opens the role stream of (class, flow, hop) under the
// spec's protocol.
func (s *System) activeRand(proto ActiveProtocol, class, flow, hop int, role uint64) *xrand.Rand {
	return xrand.New(s.streamSeed(class, activeStreamID(proto, flow, hop, role)))
}

// activeFlow assembles one flow of the scenario: the class payload
// source, the watermark injection (skipped for phantom training flows),
// the protocol's defense chain, and the exit observation chain. All
// randomness derives from (seed, class, flow, role) streams, so a flow
// is a pure function of its identity.
func (s *System) activeFlow(spec ActiveSpec, class, flow int, watermarked bool) (*active.Flow, error) {
	payload, err := s.payloadModel(class)
	if err != nil {
		return nil, err
	}
	payload.Start(s.activeRand(spec.Protocol, class, flow, 0, activeRolePayload).Stream)
	fl := &active.Flow{Route: cascade.Route{Class: class, Probe: obs.NewShard()}}
	var src traffic.Source = &payload
	if watermarked {
		key, err := active.NewKey(activeChips, activePeriod,
			s.activeRand(spec.Protocol, class, flow, 0, activeRoleKey))
		if err != nil {
			return nil, err
		}
		fl.Key = key
		switch spec.Mode {
		case active.ModeDelay:
			ds, err := active.NewDelaySource(src, key, spec.Amplitude)
			if err != nil {
				return nil, err
			}
			src = ds
			fl.Inject = ds.Stats
		default: // active.ModeChaff, enforced by validateActive
			chaff, err := active.NewChaffSource(key, spec.Amplitude,
				s.activeRand(spec.Protocol, class, flow, 0, activeRoleChaff))
			if err != nil {
				return nil, err
			}
			merge := traffic.NewPair(traffic.Dynamic{Source: src}, traffic.Dynamic{Source: chaff})
			src = &merge
			fl.Inject = chaff.Stats
		}
	}
	switch spec.Protocol {
	case ActiveCascade:
		exit, probes, err := s.hopChain(spec.Hops, src, func(h int) *xrand.Rand {
			return s.activeRand(spec.Protocol, class, flow, h, activeRoleHop)
		}, s.activeRand(spec.Protocol, class, flow, len(spec.Hops), activeRoleExit), nil, fl.Probe)
		if err != nil {
			return nil, err
		}
		fl.Exit = exit
		fl.Hops = probes
	default:
		if c := coverPPS(0, spec.CoverToPPS, s.cfg.Rates[class].PPS); c > 0 {
			// The defense mints cover past the attacker's vantage point,
			// so cover packets never carry the watermark.
			cover, err := traffic.PoissonModel(c)
			if err != nil {
				return nil, err
			}
			cover.Start(s.activeRand(spec.Protocol, class, flow, 0, activeRoleCover).Stream)
			merge := traffic.NewPair(traffic.Dynamic{Source: src}, cover)
			src = &merge
		}
		stream, probe, err := s.padStream(src, spec.Raw,
			s.activeRand(spec.Protocol, class, flow, 0, activeRoleLink), nil, fl.Probe)
		if err != nil {
			return nil, err
		}
		fl.Exit = stream
		if probe != nil {
			fl.Hops = []cascade.HopProbe{probe}
		}
		if spec.Protocol == ActiveSession {
			fl.Start = activeSessionWarmup
		}
	}
	return fl, nil
}

// NewActive instantiates the watermark engine: Flows watermarked flows
// crossing the spec's protocol, with rate classes striped across the
// flows in equal shares, plus the adversary's decoy keys. Every flow
// derives from (seed, class, flowID) role streams in the active domain.
func (s *System) NewActive(spec ActiveSpec) (*active.Engine, error) {
	if err := s.validateActive(spec); err != nil {
		return nil, err
	}
	decoys := make([]*active.Key, activeDecoys)
	for d := range decoys {
		// Decoy keys are the adversary's own dice: class 0, flow = decoy
		// index, in a role real flows never read.
		key, err := active.NewKey(activeChips, activePeriod,
			s.activeRand(spec.Protocol, 0, d, 0, activeRoleDecoy))
		if err != nil {
			return nil, err
		}
		decoys[d] = key
	}
	cum := s.classCum()
	build := func(flow int) (*active.Flow, error) {
		return s.activeFlow(spec, classOf(flow, spec.Flows, cum), flow, true)
	}
	return active.NewEngine(spec.Flows, spec.paddedHops(), spec.Mode,
		activeChips, activePeriod, decoys, build)
}

// ActiveDetectConfig parameterizes the watermark detection attack run
// through a System: the attack-side knobs become the
// adversary.CorrConfig active.Detect runs on, and TrainWindows sets the
// off-line training effort for the exit-side PIAT class classifiers.
type ActiveDetectConfig struct {
	// Duration is the observation time in stream seconds past each
	// flow's warm-up (0 = 40); the matched filter uses
	// floor(Duration/activePeriod) whole slots and detects at z ≥ 3.
	Duration float64
	// Features are the PIAT statistics the exit class classifiers use;
	// empty runs a pure watermark attack. Ignored for Raw scenarios (an
	// unpadded flow needs no class fingerprint).
	Features []analytic.Feature
	// FeatureWindow is the PIAT count per feature value (0 = 200).
	FeatureWindow int
	// TrainWindows is the number of off-line training windows per class
	// for the classifiers (0 = 120).
	TrainWindows int
}

// withDefaults fills zero fields.
func (c ActiveDetectConfig) withDefaults() ActiveDetectConfig {
	if c.Duration == 0 {
		c.Duration = 40
	}
	if c.FeatureWindow == 0 {
		c.FeatureWindow = defaultFeatureWindow
	}
	if c.TrainWindows == 0 {
		c.TrainWindows = 120
	}
	return c
}

// validate checks a defaults-applied config's budgets for flows flows:
// the matched filter needs eight whole chip slots and keeps
// active.Channels values per slot.
func (c ActiveDetectConfig) validate(flows int) error {
	return validateObservation(flows, c.TrainWindows, c.Duration, activePeriod, 8, active.Channels)
}

// activeDetection runs the active watermark attack end to end: the
// adversary first trains per-class PIAT classifiers on phantom flows
// (fresh unwatermarked realizations of the same chain, so training
// observes cover traffic, batching and re-padding exactly as run time
// does), then injects its watermark into every flow and runs the
// matched-filter detection at the exit tap. Results are identical at
// any opts.Workers width; flows are the unit of parallelism. Run calls it
// on the spec Build validated and the defaults-applied config.
func (s *System) activeDetection(ctx context.Context, spec ActiveSpec, cfg ActiveDetectConfig, opts RunOptions) (*active.Result, error) {
	if spec.Raw {
		cfg.Features = nil
	}

	// Off-line phase: per-class exit feature densities from phantom
	// flows, which reuse the population protocol's phantom index block —
	// a disjoint flow range of the active domain real flows never reach.
	corr, err := s.trainExitClassifiers(ctx, cfg.Features,
		cfg.TrainWindows, cfg.FeatureWindow, cfg.Duration, opts.Workers,
		func(class, flow int) (*cascade.Route, float64, error) {
			fl, err := s.activeFlow(spec, class, flow, false)
			if err != nil {
				return nil, 0, err
			}
			return &fl.Route, fl.Start, nil
		})
	if err != nil {
		return nil, err
	}

	eng, err := s.NewActive(spec)
	if err != nil {
		return nil, err
	}
	return active.Detect(ctx, eng, corr)
}
