package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"linkpad/internal/active"
	"linkpad/internal/adversary"
	"linkpad/internal/analytic"
	"linkpad/internal/cascade"
	"linkpad/internal/population"
)

// Scenario API (scenario.go): the one entry point to all five
// observation protocols, one shape for all of them:
//
//	sc, err := sys.Build(core.DisclosureSpec{Population: pop, Disclosure: cfg})
//	res, err := sc.Run(ctx, core.RunOptions{Workers: 4})
//	... res.Disclosure ...
//
// Build validates the spec's shape and its defaults-applied observation
// budget against the system eagerly (a bad spec fails before any
// simulation); Run executes the attack under the shared RunOptions.
// The worker width is set once, on Run: no spec config carries one.
//
// Determinism: a scenario run is a pure function of (system config,
// spec) — RunOptions.Workers never changes a result.

// Spec describes one scenario: which protocol to run and with what
// parameters. The interface is sealed — the six spec types below are
// the complete set; Build rejects anything else.
type Spec interface{ scenarioSpec() }

// AttackSetSpec is the replica-window attack (the paper's off-line
// training / run-time classification protocol) measured for one or more
// feature statistics against the same Monte Carlo windows.
type AttackSetSpec struct {
	// Attack carries the window, training and stream-domain knobs.
	Attack AttackConfig
	// Features are the statistics to classify on (at least one). The
	// padded-stream simulation is shared across all of them.
	Features []analytic.Feature
}

// SessionAttackSpec is the continuous-stream attack: consecutive windows
// of long-lived sessions accumulated into an anytime decision.
type SessionAttackSpec struct {
	// Session carries the full session-attack configuration.
	Session SessionAttackConfig
}

// DisclosureSpec is the round-based statistical disclosure attack
// against a user population behind a batching mix (threshold, pool or
// timed — Disclosure.Mix), with a pluggable estimator
// (Disclosure.Estimator) against the population's dummy policy
// (Population.Dummies).
type DisclosureSpec struct {
	// Population describes the sender population, including its dummy
	// policy.
	Population PopulationSpec
	// Disclosure carries the attack knobs (batch, mix, estimator,
	// targets, budget).
	Disclosure population.DisclosureConfig
}

// FlowCorrelationSpec is the per-flow correlation attack against a user
// population: throughput fingerprints plus PIAT class posteriors.
type FlowCorrelationSpec struct {
	// Population describes the sender population.
	Population PopulationSpec
	// Corr carries the attack knobs (duration, rate windows, features).
	Corr FlowCorrConfig
}

// CascadeCorrelationSpec is the end-to-end correlation attack against a
// cascade of re-padding hops.
type CascadeCorrelationSpec struct {
	// Cascade describes the flows and the hop chain.
	Cascade CascadeSpec
	// Corr carries the attack knobs.
	Corr CascadeCorrConfig
}

// ActiveDetectionSpec is the active watermark attack: inject a timing
// watermark at the ingress, matched-filter at the egress.
type ActiveDetectionSpec struct {
	// Active describes the watermarked flows and their protocol.
	Active ActiveSpec
	// Detect carries the detection knobs.
	Detect ActiveDetectConfig
}

func (AttackSetSpec) scenarioSpec()          {}
func (SessionAttackSpec) scenarioSpec()      {}
func (DisclosureSpec) scenarioSpec()         {}
func (FlowCorrelationSpec) scenarioSpec()    {}
func (CascadeCorrelationSpec) scenarioSpec() {}
func (ActiveDetectionSpec) scenarioSpec()    {}

// RunOptions are the execution knobs shared by every scenario. They
// choose how a run executes, never what it simulates.
type RunOptions struct {
	// Workers bounds the run's parallelism (trials, sessions, flows or
	// users, by protocol). Zero means all CPUs. Results are identical at
	// any width.
	Workers int
}

// Result is the outcome union of one scenario run: exactly one field is
// non-nil, matching the spec type the scenario was built from.
type Result struct {
	// AttackSet holds the replica-window results, in Features order
	// (AttackSetSpec).
	AttackSet []*AttackResult
	// Session holds the continuous-stream result (SessionAttackSpec).
	Session *SessionAttackResult
	// Disclosure holds the statistical-disclosure result (DisclosureSpec).
	Disclosure *population.DisclosureResult
	// FlowCorr holds the population flow-correlation result
	// (FlowCorrelationSpec).
	FlowCorr *adversary.Correlation
	// Cascade holds the cascade-correlation result
	// (CascadeCorrelationSpec).
	Cascade *cascade.Result
	// Active holds the watermark-detection result (ActiveDetectionSpec).
	Active *active.Result
}

// Scenario is a validated, system-bound attack ready to run. A scenario
// is reusable: each Run call executes a fresh simulation (determinism
// makes two identical Runs produce identical results).
type Scenario interface {
	// Run executes the scenario. It checks ctx before it starts, then
	// once per unit of the protocol's parallel loop: each attack-set
	// window and each session (training and evaluation alike), each
	// phantom training window and each observed flow of the flow,
	// cascade and active attacks, and every CheckEvery rounds of
	// disclosure. No check sits inside a per-packet loop, so a stop waits
	// for the units in flight, and a finished result never depends on
	// the checks. When ctx is done, Run returns context.Cause(ctx) and
	// no result.
	Run(ctx context.Context, opts RunOptions) (*Result, error)
}

// Build validates spec against the system and returns the runnable
// scenario. A non-finite float anywhere in the spec (checkFinite), shape
// errors (bad population geometry, empty feature sets) and budgets Run
// cannot execute (too few windows, a non-positive or oversized
// observation duration) surface here, before any simulation cost.
func (s *System) Build(spec Spec) (Scenario, error) {
	if spec == nil {
		return nil, errors.New("core: nil scenario spec")
	}
	if err := checkFinite(spec); err != nil {
		return nil, err
	}
	switch sp := spec.(type) {
	case AttackSetSpec:
		if err := validateAttackSet(sp.Attack.withDefaults(), sp.Features); err != nil {
			return nil, err
		}
	case SessionAttackSpec:
		cfg := sp.Session.withDefaults()
		if err := cfg.validateTrainPhase(); err != nil {
			return nil, err
		}
		if err := cfg.validateEvalPhase(); err != nil {
			return nil, err
		}
	case DisclosureSpec:
		if err := s.validatePopulation(sp.Population); err != nil {
			return nil, err
		}
		if err := sp.Disclosure.Validate(sp.Population.Users); err != nil {
			return nil, err
		}
		// The dummy policy lives on the population (the senders act it
		// out); a conflicting copy on the attack config is a spec bug.
		if sp.Disclosure.Dummies != population.DummyNone && sp.Disclosure.Dummies != sp.Population.Dummies {
			return nil, errors.New("core: set the dummy policy on PopulationSpec.Dummies; the DisclosureConfig copy disagrees")
		}
		// The width is Run's alone; Run sets the config's copy.
		if sp.Disclosure.Workers != 0 {
			return nil, errors.New("core: set the worker width on RunOptions.Workers, not DisclosureConfig.Workers")
		}
	case FlowCorrelationSpec:
		if err := s.validatePopulation(sp.Population); err != nil {
			return nil, err
		}
		if err := sp.Corr.withDefaults().validate(sp.Population.Users); err != nil {
			return nil, err
		}
	case CascadeCorrelationSpec:
		if err := s.validateCascade(sp.Cascade); err != nil {
			return nil, err
		}
		if err := sp.Corr.withDefaults().validate(sp.Cascade.Flows); err != nil {
			return nil, err
		}
	case ActiveDetectionSpec:
		if err := s.validateActive(sp.Active); err != nil {
			return nil, err
		}
		if err := sp.Detect.withDefaults().validate(sp.Active.Flows); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: unknown scenario spec type %T", spec)
	}
	return &scenario{sys: s, spec: spec}, nil
}

// scenario binds a validated spec to its system.
type scenario struct {
	sys  *System
	spec Spec
}

// maxObservationCells bounds the observation arrays a flow or watermark
// scenario allocates: flows × rate windows for each side's throughput
// fingerprints, flows × chip slots × channels for the matched filter,
// and the flows × flows score matrix. A budget past it fails in Build
// instead of exhausting memory, or simulating for hours, in Run.
const maxObservationCells = 1 << 24

// validateObservation checks a flow protocol's defaults-applied budget:
// two training windows per class, and a positive duration holding at
// least minWindows whole windows of the given width (floored as the
// attack layers floor them), with flows × windows × channels cells and
// the flows × flows score matrix under maxObservationCells.
func validateObservation(flows, trainWindows int, duration, window float64, minWindows, channels int) error {
	if trainWindows < 2 {
		return errors.New("core: a flow attack needs at least two training windows per class")
	}
	if duration <= 0 {
		return errors.New("core: observation duration must be positive")
	}
	windows := math.Floor(duration/window + 1e-9)
	if windows < float64(minWindows) {
		return fmt.Errorf("core: observation duration %v holds fewer than %d whole %v s windows", duration, minWindows, window)
	}
	n := float64(flows)
	if n*windows*float64(channels) > maxObservationCells || n*n > maxObservationCells {
		return fmt.Errorf("core: %d flows observed over %v windows exceed the %d-cell observation budget", flows, windows, maxObservationCells)
	}
	return nil
}

// Run implements Scenario.
func (sc *scenario) Run(ctx context.Context, opts RunOptions) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	res, err := sc.run(ctx, opts)
	// A stop surfaces as the bare cause, however deep the check that
	// saw it, and a run that ends after its context is done returns no
	// result.
	if cause := context.Cause(ctx); cause != nil {
		return nil, cause
	}
	return res, err
}

// run dispatches on the spec type; Run owns the context checks around it.
func (sc *scenario) run(ctx context.Context, opts RunOptions) (*Result, error) {
	var (
		res = &Result{}
		err error
	)
	switch sp := sc.spec.(type) {
	case AttackSetSpec:
		res.AttackSet, err = sc.sys.attackSet(ctx, sp.Attack, sp.Features, opts)
	case SessionAttackSpec:
		res.Session, err = sc.sys.sessionAttack(ctx, sp.Session, opts)
	case DisclosureSpec:
		res.Disclosure, err = sc.runDisclosure(ctx, sp, opts)
	case FlowCorrelationSpec:
		res.FlowCorr, err = sc.sys.flowCorrelation(ctx, sp.Population, sp.Corr.withDefaults(), opts)
	case CascadeCorrelationSpec:
		res.Cascade, err = sc.sys.cascadeCorrelation(ctx, sp.Cascade, sp.Corr.withDefaults(), opts)
	case ActiveDetectionSpec:
		res.Active, err = sc.sys.activeDetection(ctx, sp.Active, sp.Detect.withDefaults(), opts)
	default:
		return nil, fmt.Errorf("core: unknown scenario spec type %T", sc.spec)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runDisclosure executes the round-based disclosure attack
// with context checks between estimator checkpoints. Chunking the round
// loop at CheckEvery granularity is result-invariant: DisclosureRun.Step
// folds rounds and tests checkpoints identically under any step split.
func (sc *scenario) runDisclosure(ctx context.Context, sp DisclosureSpec, opts RunOptions) (*population.DisclosureResult, error) {
	sys := sc.sys
	cfg := sp.Disclosure
	// The population owns the dummy policy (Build enforced agreement).
	cfg.Dummies = sp.Population.Dummies
	// Seed the pool mix's retention stream from the system's master seed
	// (its own role in the population domain) before defaults would pin
	// the package-level fallback, so retention draws vary with the seed
	// like every other stream. An explicit MixSpec.Seed wins.
	if cfg.Mix.Kind == population.MixPool && cfg.Mix.Seed == 0 {
		cfg.Mix.Seed = sys.streamSeed(0, populationStreamID(0, popRoleMix))
	}
	cfg = cfg.WithDefaults(sp.Population.Users)
	cfg.Workers = opts.Workers
	eng, err := sys.NewPopulation(sp.Population)
	if err != nil {
		return nil, err
	}
	run, err := eng.StartDisclosure(cfg)
	if err != nil {
		return nil, err
	}
	for !run.Done() {
		if err := context.Cause(ctx); err != nil {
			run.Stop()
			return nil, err
		}
		if _, err := run.Step(cfg.CheckEvery); err != nil {
			return nil, err
		}
	}
	return run.Result(), nil
}
