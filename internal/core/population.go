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

// Every user's recipient profile places popContactWeight of its
// messages' probability mass on a contact set of popContacts recipients.
const (
	popContacts      = 3
	popContactWeight = 0.7
)

// validatePopulation checks the spec against the system.
func (s *System) validatePopulation(spec PopulationSpec) error {
	if err := checkFinite(spec); err != nil {
		return err
	}
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
	if c := spec.Churn; c != nil && (c.MeanOn <= 0 || c.MeanOff <= 0) {
		return errors.New("core: churn mean on/off durations must be positive")
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
// could report is ruled out here, by validatePopulation, the system's
// own validation and newPopBuilder's class templates, before the engine
// is made.
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

// popBuilder is NewPopulation's population.Builder. The class striping,
// each class's validated payload and cover Models and the profile shape
// (the contact-set Zipf weights) are computed once per population;
// everything per user derives from its role streams. It builds users as
// values, which the engine copies into its pointer-free arenas.
type popBuilder struct {
	s     *System
	spec  PopulationSpec
	cum   []float64
	shape *population.ProfileShape
	// payload and cover are each class's sources, before start starts
	// copies on a user's streams; a class without cover has the zero
	// Model.
	payload, cover []traffic.Model
}

// newPopBuilder prepares the per-population state of a validated spec.
func (s *System) newPopBuilder(spec PopulationSpec) (*popBuilder, error) {
	shape, err := population.NewProfileShape(spec.Recipients, popContacts, popContactWeight)
	if err != nil {
		return nil, err
	}
	b := &popBuilder{s: s, spec: spec, cum: s.classCum(), shape: shape}
	for class, r := range s.cfg.Rates {
		payload, err := s.payloadModel(class)
		if err != nil {
			return nil, err
		}
		var cover traffic.Model
		if c := coverPPS(spec.CoverRate, spec.CoverToPPS, r.PPS); c > 0 {
			if cover, err = traffic.PoissonModel(c); err != nil {
				return nil, err
			}
		}
		b.payload, b.cover = append(b.payload, payload), append(b.cover, cover)
	}
	return b, nil
}

// roleStream is user u's role stream, by value.
func (b *popBuilder) roleStream(class, u int, role uint64) xrand.Stream {
	return xrand.NewStream(b.s.streamSeed(class, populationStreamID(u, role)))
}

// start starts copies of user u's class payload and cover (the zero
// Model when the class has none) on the user's role streams, in place.
func (b *popBuilder) start(class, u int, payload, cover *traffic.Model) {
	payload.Start(b.roleStream(class, u, popRolePayload))
	if !cover.None() {
		cover.Start(b.roleStream(class, u, popRoleCover))
	}
}

// Build materializes user u. Every part of the User is a value except
// the shared shape and, under churn, the presence schedule, so a Build
// without churn allocates nothing. The engine draws the user's contact
// set from its profile role stream, which then continues as its
// per-message recipient draws, keeping every draw a function of (seed,
// class, userID).
func (b *popBuilder) Build(u int) (population.User, error) {
	class := classOf(u, b.spec.Users, b.cum)
	presence, err := b.s.presenceSchedule(b.spec, class, u)
	if err != nil {
		return population.User{}, err
	}
	usr := population.User{
		Class:    class,
		Messages: b.payload[class],
		Cover:    b.cover[class],
		Shape:    b.shape,
		RNG:      b.roleStream(class, u, popRoleProfile),
		Presence: presence,
	}
	b.start(class, u, &usr.Messages, &usr.Cover)
	return usr, nil
}

// Frontier reports what Build(u)'s merged sources yield first, without
// building the user: the payload and cover are started as Build starts
// them, each draws its first gap, the earlier wins (a tie goes to the
// payload, as the engine's merge breaks it; an absent cover never
// fires), and the cover's rate (0 when absent) is added to the
// payload's. The sources are values on this frame, so the call
// allocates nothing.
func (b *popBuilder) Frontier(u int) (population.Frontier, error) {
	class := classOf(u, b.spec.Users, b.cum)
	payload, cover := b.payload[class], b.cover[class]
	b.start(class, u, &payload, &cover)
	f := population.Frontier{T: payload.Next(), Rate: payload.Rate() + cover.Rate()}
	if tc := cover.Next(); tc < f.T {
		f.T, f.Cover = tc, true
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
	return validateObservation(flows, c.TrainWindows, c.Duration, adversary.RateWindow, 2, 1)
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

// flowRoute assembles user u's population link as a route: the user's
// merged payload+cover stream entering the system's padding policy and
// the shared observation chain (padStream). withEntry attaches the
// adversary's entry recorder to the ingress tap, which observes the
// merged arrivals before the padding; an impaired tap (EntryTapImpair)
// observes them through per-flow loss/dup/reordering on the user's
// popRoleTap stream. Under churn the user's presence schedule gates both
// sides: offline periods generate no ingress arrivals (the sender is
// away) and emit no egress packets (the padded link itself is down, so
// even timer-driven dummies stop). All randomness comes from the user's
// popRoleLink stream, so a link is deterministic from its identity; the
// presence schedule rides its own role stream.
func (s *System) flowRoute(spec PopulationSpec, class, u int, raw, withEntry bool) (*cascade.Route, error) {
	master := xrand.New(s.streamSeed(class, populationStreamID(u, popRoleLink)))
	presence, err := s.presenceSchedule(spec, class, u)
	if err != nil {
		return nil, err
	}
	r := &cascade.Route{Class: class, Probe: obs.NewShard()}
	var tap func(float64)
	if withEntry {
		r.Entry = &cascade.Recorder{}
		if tap, err = s.entryTapWrap(r.Entry.Record, class, populationStreamID(u, popRoleTap), r.Probe); err != nil {
			return nil, err
		}
	}
	payload, err := s.payloadModel(class)
	if err != nil {
		return nil, err
	}
	payload.Start(master.Split().Stream)
	var src traffic.Source = &payload
	if c := coverPPS(spec.CoverRate, spec.CoverToPPS, s.cfg.Rates[class].PPS); c > 0 {
		cover, err := traffic.PoissonModel(c)
		if err != nil {
			return nil, err
		}
		cover.Start(master.Split().Stream)
		merge := traffic.NewPair(payload, cover)
		src = &merge
	}
	if presence != nil {
		src, err = traffic.NewGated(src, presence)
		if err != nil {
			return nil, err
		}
	}
	if r.Exit, _, err = s.padStream(src, raw, master, tap, r.Probe); err != nil {
		return nil, err
	}
	if presence != nil {
		if r.Exit, err = netem.NewGateStream(r.Exit, presence); err != nil {
			return nil, err
		}
	}
	return r, nil
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
// opts.Workers width; users are the unit of parallelism. Run calls it on
// the spec Build validated and the defaults-applied config.
func (s *System) flowCorrelation(ctx context.Context, spec PopulationSpec, cfg FlowCorrConfig, opts RunOptions) (*adversary.Correlation, error) {
	cum := s.classCum()

	// Off-line phase: per-class feature densities from phantom flows,
	// which churn exactly as run-time flows do (their own presence
	// realizations), so the classifiers are trained on the gap structure
	// they will be asked to classify.
	corr, err := s.trainExitClassifiers(ctx, cfg.Features,
		cfg.TrainWindows, defaultFeatureWindow, cfg.Duration, opts.Workers,
		func(class, flow int) (*cascade.Route, float64, error) {
			r, err := s.flowRoute(spec, class, flow, cfg.Raw, false)
			return r, 0, err
		})
	if err != nil {
		return nil, err
	}

	// Run-time phase: observe every user's flow and correlate.
	res, _, err := cascade.CorrelateRoutes(ctx, spec.Users, corr, func(u int) (*cascade.Route, error) {
		return s.flowRoute(spec, classOf(u, spec.Users, cum), u, cfg.Raw, true)
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return res, nil
}
