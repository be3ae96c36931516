package core

import (
	"errors"
	"fmt"

	"linkpad/internal/adversary"
	"linkpad/internal/analytic"
	"linkpad/internal/cascade"
	"linkpad/internal/netem"
	"linkpad/internal/obs"
	"linkpad/internal/par"
	"linkpad/internal/population"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// Population entry points: a System description plus a PopulationSpec
// instantiate the multi-user engine (internal/population) against the
// system's rate classes and padding policy. Every user's streams derive
// from (seed, class, userID) in the population stream domain
// (domains.go), so populations never share randomness with the replica
// or session protocols, and users — the unit of parallelism — never
// share randomness with each other.

// PopulationSpec describes a user population layered on the system: who
// sends (the system's rate classes in equal shares), to whom (contact
// profiles of popContacts recipients over a shared recipient space), and
// how much cover traffic accompanies the real messages.
type PopulationSpec struct {
	// Users is the population size (at least 2).
	Users int
	// Recipients is the size of the shared recipient space (at least
	// 2·popContacts).
	Recipients int
	// CoverRate adds a per-user dummy (cover) Poisson stream at
	// CoverRate × the user's payload rate. Cover messages are
	// indistinguishable at the ingress tap and are delivered to
	// uniformly random recipients. Mutually exclusive with CoverToPPS.
	CoverRate float64
	// CoverToPPS instead pads each user's total send rate up to an
	// absolute target (packets/second): cover rate = max(0,
	// CoverToPPS − payload rate). This is how policies are compared at
	// matched overhead. Mutually exclusive with CoverRate.
	CoverToPPS float64
	// Churn gives every user a seeded presence schedule: alternating
	// exponential online/offline periods drawn from the user's
	// popRoleChurn stream. An offline user sends nothing (round engine)
	// and its padded link goes dark (flow observations). Nil means a
	// static population.
	Churn *ChurnSpec
	// Dummies selects the population's dummy policy for disclosure runs:
	// how users address their cover messages (population.DummyNone keeps
	// them uniform, DummyUniform demands uniform receiver-bound cover
	// explicitly, DummyAdaptive re-addresses targets' cover to the
	// estimator's current top suspects). Uniform and adaptive require
	// cover traffic (CoverRate or CoverToPPS). The per-flow protocols
	// ignore the policy — dummies only matter where recipients are
	// observed.
	Dummies population.DummyPolicy
}

// ChurnSpec describes population churn: users alternate between online
// periods of mean MeanOn seconds and offline periods of mean MeanOff
// seconds, independently per user. The stationary fraction of the
// population online is MeanOn/(MeanOn+MeanOff).
type ChurnSpec struct {
	// MeanOn is the mean online-period duration in seconds (positive).
	MeanOn float64
	// MeanOff is the mean offline-period duration in seconds (positive).
	MeanOff float64
}

// Validate checks the churn parameters.
func (c *ChurnSpec) Validate() error {
	if c == nil {
		return nil
	}
	if !(c.MeanOn > 0) || !(c.MeanOff > 0) {
		return errors.New("core: churn mean on/off durations must be positive")
	}
	return nil
}

// Every user's recipient profile places popContactWeight of its
// messages' probability mass on a contact set of popContacts recipients.
const (
	popContacts      = 3
	popContactWeight = 0.7
)

// validatePopulation checks the spec against the system.
func (s *System) validatePopulation(spec PopulationSpec) error {
	if spec.Users < 2 {
		return errors.New("core: population needs at least two users")
	}
	if spec.Recipients < 2*popContacts {
		return fmt.Errorf("core: population needs at least %d recipients", 2*popContacts)
	}
	if spec.CoverRate < 0 || spec.CoverToPPS < 0 {
		return errors.New("core: population cover rates must be non-negative")
	}
	if spec.CoverRate > 0 && spec.CoverToPPS > 0 {
		return errors.New("core: CoverRate and CoverToPPS are mutually exclusive")
	}
	if err := spec.Churn.Validate(); err != nil {
		return err
	}
	switch spec.Dummies {
	case population.DummyNone:
	case population.DummyUniform, population.DummyAdaptive:
		if spec.CoverRate <= 0 && spec.CoverToPPS <= 0 {
			return fmt.Errorf("core: the %s dummy policy requires cover traffic (CoverRate or CoverToPPS)",
				spec.Dummies)
		}
	default:
		return fmt.Errorf("core: unknown dummy policy %d", int(spec.Dummies))
	}
	return nil
}

// classCum returns the cumulative equal shares of the system's rate
// classes, (c+1)/m: the exact sum of c+1 unit weights divided by their
// total m. The population, cascade and active protocols stripe their
// users and flows over it with classOf.
func (s *System) classCum() []float64 {
	m := len(s.cfg.Rates)
	cum := make([]float64, m)
	for c := range cum {
		cum[c] = float64(c+1) / float64(m)
	}
	return cum
}

// classOf stripes user u's class deterministically by the cumulative
// shares: the class depends only on (u, Users), never on any random
// stream.
func classOf(u, users int, cum []float64) int {
	x := (float64(u) + 0.5) / float64(users)
	for c, v := range cum {
		if x < v {
			return c
		}
	}
	return len(cum) - 1
}

// coverPPS returns a flow's cover rate for its payload rate: the top-up
// to coverToPPS when that is set, otherwise coverRate times the payload.
// Population users and active-attack flows share this rule.
func coverPPS(coverRate, coverToPPS, payload float64) float64 {
	if coverToPPS > 0 {
		if c := coverToPPS - payload; c > 0 {
			return c
		}
		return 0
	}
	return coverRate * payload
}

// NewPopulation instantiates the multi-user engine: every user gets a
// private message source (the system's payload model at its class rate),
// an optional cover source, and a recipient profile, all derived from
// (seed, class, userID) role streams in the population domain. The
// engine materializes users lazily: its init pass reads each user's
// frontier (first arrival, origin, rate) from popBuilder.Frontier, which
// builds no user, and popBuilder.Build — a pure function of the user
// index — runs only when the simulation horizon first reaches one of a
// user's arrivals. Since no user is built up front, every error Build
// could report is ruled out here, by validatePopulation and the system's
// own validation, before the engine is made.
func (s *System) NewPopulation(spec PopulationSpec) (*population.Engine, error) {
	if err := s.validatePopulation(spec); err != nil {
		return nil, err
	}
	b, err := s.newPopBuilder(spec)
	if err != nil {
		return nil, err
	}
	return population.NewLazyEngine(spec.Users, spec.Recipients, b)
}

// popBuilder is NewPopulation's population.Builder. The class striping
// and the profile shape (the contact-set Zipf weights) are computed once
// per population; everything per user derives from its role streams.
type popBuilder struct {
	s     *System
	spec  PopulationSpec
	cum   []float64
	shape *population.ProfileShape
}

// newPopBuilder prepares the per-population state of a validated spec.
func (s *System) newPopBuilder(spec PopulationSpec) (*popBuilder, error) {
	shape, err := population.NewProfileShape(spec.Recipients, popContacts, popContactWeight)
	if err != nil {
		return nil, err
	}
	return &popBuilder{s: s, spec: spec, cum: s.classCum(), shape: shape}, nil
}

// roleSeed is the seed of user u's role stream.
func (b *popBuilder) roleSeed(class, u int, role uint64) uint64 {
	return b.s.streamSeed(class, populationStreamID(u, role))
}

// userStreams holds a built user's payload, cover and profile role
// streams in one allocation. The churn stream is allocated with the
// presence schedule, and only under churn.
type userStreams struct {
	payload, cover, profile xrand.Rand
}

// Build materializes user u.
func (b *popBuilder) Build(u int) (population.User, error) {
	class := classOf(u, b.spec.Users, b.cum)
	rs := new(userStreams)
	rs.payload.Seed(b.roleSeed(class, u, popRolePayload))
	payload, err := b.s.payloadSource(class, &rs.payload)
	if err != nil {
		return population.User{}, err
	}
	var cover traffic.Source
	if c := coverPPS(b.spec.CoverRate, b.spec.CoverToPPS, b.s.cfg.Rates[class].PPS); c > 0 {
		rs.cover.Seed(b.roleSeed(class, u, popRoleCover))
		cover, err = traffic.NewPoisson(c, &rs.cover)
		if err != nil {
			return population.User{}, err
		}
	}
	rs.profile.Seed(b.roleSeed(class, u, popRoleProfile))
	profile, err := b.shape.NewProfile(&rs.profile)
	if err != nil {
		return population.User{}, err
	}
	presence, err := b.s.presenceSchedule(b.spec, class, u)
	if err != nil {
		return population.User{}, err
	}
	// The profile construction consumed a prefix of the role stream;
	// the same stream continues as the user's per-message recipient
	// draws, keeping every draw a function of (seed, class, userID).
	return population.User{
		Class:    class,
		Messages: payload,
		Cover:    cover,
		Profile:  profile,
		RNG:      &rs.profile,
		Presence: presence,
	}, nil
}

// Frontier reports what Build(u)'s merged sources yield first, without
// building the user: the payload and cover sources are made from the
// same role-stream seeds by the same constructors, each draws its first
// gap, the earlier wins (a tie goes to the payload, as the engine's merge
// breaks it), and the cover's rate is added to the payload's.
// For the Poisson payload the concrete sources never leave this frame,
// so escape analysis keeps them and their streams on the stack and the
// call allocates nothing; the other payload models go through the
// Source interface and may allocate.
func (b *popBuilder) Frontier(u int) (population.Frontier, error) {
	class := classOf(u, b.spec.Users, b.cum)
	pps := b.s.cfg.Rates[class].PPS
	var f population.Frontier
	if b.s.cfg.Payload == PayloadPoisson {
		payload, err := traffic.NewPoisson(pps, xrand.New(b.roleSeed(class, u, popRolePayload)))
		if err != nil {
			return f, err
		}
		f.T, f.Rate = payload.Next(), payload.Rate()
	} else {
		payload, err := b.s.payloadSource(class, xrand.New(b.roleSeed(class, u, popRolePayload)))
		if err != nil {
			return f, err
		}
		f.T, f.Rate = payload.Next(), payload.Rate()
	}
	if c := coverPPS(b.spec.CoverRate, b.spec.CoverToPPS, pps); c > 0 {
		cover, err := traffic.NewPoisson(c, xrand.New(b.roleSeed(class, u, popRoleCover)))
		if err != nil {
			return f, err
		}
		if tc := cover.Next(); tc < f.T {
			f.T, f.Cover = tc, true
		}
		f.Rate += cover.Rate()
	}
	return f, nil
}

// presenceSchedule builds user u's churn presence schedule on the user's
// popRoleChurn stream, or returns nil, allocating nothing, for a static
// population. The schedule is a pure function of (seed, class, userID),
// so rebuilding the population reproduces it exactly — checkpoints never
// serialize it.
func (s *System) presenceSchedule(spec PopulationSpec, class, user int) (*traffic.OnOffSchedule, error) {
	if spec.Churn == nil {
		return nil, nil
	}
	rng := xrand.New(s.streamSeed(class, populationStreamID(user, popRoleChurn)))
	return traffic.NewOnOffSchedule(spec.Churn.MeanOn, spec.Churn.MeanOff, rng)
}

// FlowCorrConfig parameterizes the population flow-correlation attack
// run through a System: the attack-side knobs become the
// adversary.CorrConfig the attack runs on, with defaultFeatureWindow
// PIATs reduced to one feature value, and TrainWindows sets the off-line
// training effort for the PIAT class classifiers.
type FlowCorrConfig struct {
	// Duration is the per-flow observation time in stream seconds
	// (0 = 60).
	Duration float64
	// Features are the PIAT statistics the class classifiers use; empty
	// runs a pure rate-correlation attack. Ignored when Raw is set (an
	// unpadded link needs no class fingerprint).
	Features []analytic.Feature
	// TrainWindows is the number of off-line training windows per class
	// for the classifiers (0 = 120).
	TrainWindows int
	// Raw bypasses the padding entirely — the egress flow is the raw
	// payload stream — as the no-countermeasure baseline.
	Raw bool
	// Workers bounds the per-user/per-window parallelism; results are
	// identical at any width. Zero means all CPUs.
	Workers int
}

// withDefaults fills zero fields.
func (c FlowCorrConfig) withDefaults() FlowCorrConfig {
	if c.Duration == 0 {
		c.Duration = 60
	}
	if c.TrainWindows == 0 {
		c.TrainWindows = 120
	}
	if c.Raw {
		c.Features = nil
	}
	return c
}

// validate checks a defaults-applied config's budgets for flows flows.
func (c FlowCorrConfig) validate(flows int) error {
	if c.TrainWindows < 2 {
		return errors.New("core: flow correlation needs at least two training windows per class")
	}
	return validateObservation(flows, c.Duration, adversary.RateWindow, 2, 1)
}

// rawLink is the unpadded baseline link: egress equals ingress.
type rawLink struct {
	src traffic.Source
	now float64
	tap func(t float64)
}

// Next returns the next (unpadded) departure time.
func (l *rawLink) Next() float64 {
	l.now += l.src.Next()
	if l.tap != nil {
		l.tap(l.now)
	}
	return l.now
}

// flowLink assembles one population user link: the user's merged
// payload+cover stream entering the system's padding policy and the
// shared observation chain (padStream), with an optional ingress tap
// observing the merged arrivals before the padding. Under churn the
// user's presence schedule gates both sides: offline periods generate no
// ingress arrivals (the sender is away) and emit no egress packets (the
// padded link itself is down, so even timer-driven dummies stop). All
// randomness comes from master, so a link is deterministic from its
// stream seed; the presence schedule rides its own role stream.
func (s *System) flowLink(spec PopulationSpec, class int, raw bool, presence *traffic.OnOffSchedule, master *xrand.Rand, tap func(t float64), sh *obs.Shard) (netem.TimeStream, error) {
	payload, err := s.payloadSource(class, master.Split())
	if err != nil {
		return nil, err
	}
	var src traffic.Source = payload
	if c := coverPPS(spec.CoverRate, spec.CoverToPPS, s.cfg.Rates[class].PPS); c > 0 {
		cover, err := traffic.NewPoisson(c, master.Split())
		if err != nil {
			return nil, err
		}
		merge := traffic.NewPair(payload, cover)
		src = &merge
	}
	if presence != nil {
		src, err = traffic.NewGated(src, presence)
		if err != nil {
			return nil, err
		}
	}
	stream, _, err := s.padStream(src, raw, master, tap, sh)
	if err != nil {
		return nil, err
	}
	if presence != nil {
		stream, err = netem.NewGateStream(stream, presence)
		if err != nil {
			return nil, err
		}
	}
	return stream, nil
}

// padStream routes an arbitrary arrival process through the system's
// padding policy (padHop on systemPad) and the system-level observation
// chain — network path and tap imperfections — with an optional ingress
// tap observing the arrivals before the padding. raw bypasses the
// padding with a rawLink (the unpadded anchor still crosses the network
// and the tap, so comparisons isolate the policy alone). The returned
// probe reads the padding stage's overhead counters (nil for raw links).
// The population and active protocols share this construction; master
// feeds padHop and then the observation chain, so the chain is
// deterministic from its stream seed.
func (s *System) padStream(src traffic.Source, raw bool, master *xrand.Rand, tap func(t float64), sh *obs.Shard) (netem.TimeStream, cascade.HopProbe, error) {
	var stream netem.TimeStream
	var probe cascade.HopProbe
	var err error
	if raw {
		stream = &rawLink{src: src, tap: tap}
	} else if stream, probe, err = s.padHop(s.systemPad(), src, master, tap, sh); err != nil {
		return nil, nil, err
	}
	if stream, err = s.observationChain(stream, master, sh); err != nil {
		return nil, nil, err
	}
	return stream, probe, nil
}

// phantomUserBase offsets the user/flow indices of the adversary's
// off-line training flows, so the training corpus and the run-time
// observations use disjoint realizations within their domain. The
// population and cascade protocols share this convention (each inside
// its own stream domain); real populations and cascades stay far below
// this index.
const phantomUserBase = 1 << 24

// phantomFlowIndex is the shared phantom index rule: training window w
// of class `class` maps into the phantom block, TrainWindows slots per
// class. All three flow protocols train through this one rule.
func phantomFlowIndex(class, trainWindows, w int) int {
	return phantomUserBase + class*trainWindows + w
}

// flowCorrelation runs the per-flow correlation attack end to end:
// the adversary first trains per-class PIAT classifiers on phantom
// training flows (fresh realizations of the same link construction, so
// training observes cover traffic and batching exactly as run time
// does), then observes every user's padded flow for cfg.Duration and
// matches egress flows to ingress users by throughput-fingerprint
// correlation plus class posteriors. Results are identical at any
// cfg.Workers width; users are the unit of parallelism. Run calls it on
// the defaults-applied config Build validated.
func (s *System) flowCorrelation(spec PopulationSpec, cfg FlowCorrConfig) (*adversary.Correlation, error) {
	if err := s.validatePopulation(spec); err != nil {
		return nil, err
	}
	cum := s.classCum()

	// Off-line phase: per-class feature densities from phantom flows.
	classifiers, exts, err := s.trainExitClassifiers(cfg.Features,
		cfg.TrainWindows, defaultFeatureWindow, cfg.Workers,
		func(class, w int) (adversary.PIATSource, error) {
			phantom := phantomFlowIndex(class, cfg.TrainWindows, w)
			master := xrand.New(s.streamSeed(class,
				populationStreamID(phantom, popRoleLink)))
			// Training flows churn exactly as run-time flows do (their own
			// presence realizations), so the classifiers are trained on the
			// gap structure they will be asked to classify.
			presence, err := s.presenceSchedule(spec, class, phantom)
			if err != nil {
				return nil, err
			}
			sh := obs.NewShard()
			link, err := s.flowLink(spec, class, cfg.Raw, presence, master, nil, sh)
			if err != nil {
				return nil, err
			}
			return netem.NewDiffer(link, sh), nil
		})
	if err != nil {
		return nil, err
	}

	// Run-time phase: observe every user's flow and correlate, pulling
	// each exit into its worker's reusable slab.
	exits := make([][]float64, par.Workers(cfg.Workers))
	res, err := adversary.CorrelateFlows(spec.Users, adversary.CorrConfig{
		Duration:      cfg.Duration,
		FeatureWindow: defaultFeatureWindow,
		Classifiers:   classifiers,
		Extractors:    exts,
		Workers:       cfg.Workers,
	}, func(worker, u int, entry []float64) (adversary.FlowObs, error) {
		class := classOf(u, spec.Users, cum)
		master := xrand.New(s.streamSeed(class, populationStreamID(u, popRoleLink)))
		presence, err := s.presenceSchedule(spec, class, u)
		if err != nil {
			return adversary.FlowObs{}, err
		}
		// The ingress tap counts the adversary's entry fingerprint (the
		// guard keeps arrivals past a non-integral Duration out of the last
		// window); an impaired tap (EntryTapImpair) observes it through
		// per-flow loss/dup/reordering on the flow's popRoleTap stream.
		tap := func(t float64) {
			if t <= cfg.Duration {
				adversary.CountRate(entry, t)
			}
		}
		sh := obs.NewShard()
		tap, err = s.entryTapWrap(tap, class, populationStreamID(u, popRoleTap), sh)
		if err != nil {
			return adversary.FlowObs{}, err
		}
		link, err := s.flowLink(spec, class, cfg.Raw, presence, master, tap, sh)
		if err != nil {
			return adversary.FlowObs{}, err
		}
		exits[worker] = netem.Collect(exits[worker][:0], link, 0, cfg.Duration)
		// The flow is finished and this worker owns the shard: publish the
		// chain's counters.
		sh.Flush()
		return adversary.FlowObs{Class: class, Exit: exits[worker]}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return res, nil
}
