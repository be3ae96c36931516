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
	"linkpad/internal/obs"
	"linkpad/internal/population"
)

// Scenario API (scenario.go): the one entry point to all five
// observation protocols, one shape for all of them:
//
//	sc, err := sys.Build(core.DisclosureSpec{Population: pop, Disclosure: cfg})
//	res, err := sc.Run(ctx, core.RunOptions{Workers: 4})
//	... res.Disclosure ...
//
// Build validates the spec's shape against the system eagerly (a bad
// spec fails before any simulation); Run executes the attack under the
// shared RunOptions — worker width, master seed, observation-budget
// scale, telemetry probe, and (for resumable protocols) a checkpoint to
// continue from.
//
// Determinism: a scenario run is a pure function of (system config,
// spec, Seed, Scale) — Workers and Probe never change a result, and a
// Resume'd run finishes byte-identically to an uninterrupted one.

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

// RunOptions are the execution knobs shared by every scenario. The zero
// value runs the spec exactly as written: config workers, the system's
// own seed, full observation budget.
type RunOptions struct {
	// Workers, when positive, overrides the spec's worker width. Results
	// are identical at any width.
	Workers int
	// Seed, when non-zero, runs the scenario against a system rebuilt
	// with this master seed (same Config otherwise) — the per-cell
	// reseeding hook sweep runners use.
	Seed uint64
	// Scale, when positive and not 1, multiplies the scenario's primary
	// observation budget after defaults are applied — training/eval
	// windows for the replica and session attacks, the round budget for
	// disclosure, the observation duration for the flow protocols — with
	// floors that keep the run valid. Zero means 1 (full budget).
	Scale float64
	// Probe, when non-nil, receives the scenario's engine-level telemetry
	// counters instead of the process-global registry. Currently the
	// population round engine is the probe-aware layer (the other
	// protocols publish through the global registry regardless).
	// Counters never influence results.
	Probe *obs.Shard
	// Resume continues a checkpointed run instead of starting fresh.
	// Supported by disclosure scenarios (the resumable protocol); any
	// other spec rejects a non-nil Resume.
	Resume *population.DisclosureState
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
	// Run executes the scenario. The context is consulted at phase
	// boundaries — between training and evaluation, and (for the round-
	// based disclosure protocol) between estimator checkpoints — so
	// cancellation interrupts long runs without tearing mid-phase state.
	Run(ctx context.Context, opts RunOptions) (*Result, error)
}

// Build validates spec against the system and returns the runnable
// scenario. Shape errors (bad population geometry, empty feature sets,
// aliasing stream domains) surface here, before any simulation cost.
func (s *System) Build(spec Spec) (Scenario, error) {
	if spec == nil {
		return nil, errors.New("core: nil scenario spec")
	}
	switch sp := spec.(type) {
	case AttackSetSpec:
		if err := validateAttackSet(sp.Attack.withDefaults(), sp.Features); err != nil {
			return nil, err
		}
	case SessionAttackSpec:
		if err := sp.Session.withDefaults().validateEvalPhase(); err != nil {
			return nil, err
		}
	case DisclosureSpec:
		if err := s.validatePopulation(sp.Population.withDefaults()); err != nil {
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
	case FlowCorrelationSpec:
		if err := s.validatePopulation(sp.Population.withDefaults()); err != nil {
			return nil, err
		}
	case CascadeCorrelationSpec:
		if err := s.validateCascade(sp.Cascade); err != nil {
			return nil, err
		}
	case ActiveDetectionSpec:
		if err := s.validateActive(sp.Active.withDefaults()); err != nil {
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

// scaleCount scales an integer observation budget, flooring so the run
// stays statistically valid.
func scaleCount(n int, scale float64, floor int) int {
	if scale <= 0 || scale == 1 {
		return n
	}
	v := int(math.Round(float64(n) * scale))
	if v < floor {
		v = floor
	}
	return v
}

// scaleDuration scales a seconds budget with a floor.
func scaleDuration(d, scale, floor float64) float64 {
	if scale <= 0 || scale == 1 {
		return d
	}
	v := d * scale
	if v < floor {
		v = floor
	}
	return v
}

// pickWorkers applies the RunOptions worker override.
func pickWorkers(cfg int, opts RunOptions) int {
	if opts.Workers > 0 {
		return opts.Workers
	}
	return cfg
}

// Run implements Scenario.
func (sc *scenario) Run(ctx context.Context, opts RunOptions) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Scale < 0 {
		return nil, errors.New("core: scenario scale must be non-negative")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sys := sc.sys
	if opts.Seed != 0 && opts.Seed != sys.cfg.Seed {
		cfg := sys.cfg
		cfg.Seed = opts.Seed
		var err error
		sys, err = NewSystem(cfg)
		if err != nil {
			return nil, err
		}
	}
	if opts.Resume != nil {
		if _, ok := sc.spec.(DisclosureSpec); !ok {
			return nil, fmt.Errorf("core: RunOptions.Resume applies to disclosure scenarios, not %T", sc.spec)
		}
	}
	res := &Result{}
	switch sp := sc.spec.(type) {
	case AttackSetSpec:
		cfg := sp.Attack.withDefaults()
		cfg.Workers = pickWorkers(cfg.Workers, opts)
		cfg.TrainWindows = scaleCount(cfg.TrainWindows, opts.Scale, 2)
		cfg.EvalWindows = scaleCount(cfg.EvalWindows, opts.Scale, 2)
		r, err := sys.attackSet(cfg, sp.Features)
		if err != nil {
			return nil, err
		}
		res.AttackSet = r
	case SessionAttackSpec:
		cfg := sp.Session.withDefaults()
		cfg.Workers = pickWorkers(cfg.Workers, opts)
		cfg.TrainWindows = scaleCount(cfg.TrainWindows, opts.Scale, 2)
		cfg.EvalSessions = scaleCount(cfg.EvalSessions, opts.Scale, 1)
		r, err := sys.sessionAttack(cfg)
		if err != nil {
			return nil, err
		}
		res.Session = r
	case DisclosureSpec:
		r, err := sc.runDisclosure(ctx, sys, sp, opts)
		if err != nil {
			return nil, err
		}
		res.Disclosure = r
	case FlowCorrelationSpec:
		cfg := sp.Corr.withDefaults()
		cfg.Workers = pickWorkers(cfg.Workers, opts)
		cfg.Duration = scaleDuration(cfg.Duration, opts.Scale, 2*cfg.RateWindow)
		r, err := sys.flowCorrelation(sp.Population, cfg)
		if err != nil {
			return nil, err
		}
		res.FlowCorr = r
	case CascadeCorrelationSpec:
		cfg := sp.Corr.withDefaults()
		cfg.Workers = pickWorkers(cfg.Workers, opts)
		cfg.Duration = scaleDuration(cfg.Duration, opts.Scale, 2*cfg.RateWindow)
		r, err := sys.cascadeCorrelation(sp.Cascade, cfg)
		if err != nil {
			return nil, err
		}
		res.Cascade = r
	case ActiveDetectionSpec:
		spec := sp.Active.withDefaults()
		cfg := sp.Detect.withDefaults()
		cfg.Workers = pickWorkers(cfg.Workers, opts)
		// The matched filter needs at least one whole chip sequence.
		cfg.Duration = scaleDuration(cfg.Duration, opts.Scale, float64(spec.Chips)*spec.Period)
		r, err := sys.activeDetection(spec, cfg)
		if err != nil {
			return nil, err
		}
		res.Active = r
	default:
		return nil, fmt.Errorf("core: unknown scenario spec type %T", sc.spec)
	}
	return res, nil
}

// runDisclosure executes (or resumes) the round-based disclosure attack
// with context checks between estimator checkpoints. Chunking the round
// loop at CheckEvery granularity is result-invariant: DisclosureRun.Step
// folds rounds and tests checkpoints identically under any step split.
func (sc *scenario) runDisclosure(ctx context.Context, sys *System, sp DisclosureSpec, opts RunOptions) (*population.DisclosureResult, error) {
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
	cfg.Workers = pickWorkers(cfg.Workers, opts)
	// The budget floor keeps at least one estimator checkpoint in range.
	cfg.MaxRounds = scaleCount(cfg.MaxRounds, opts.Scale, cfg.CheckEvery)
	eng, err := sys.NewPopulation(sp.Population)
	if err != nil {
		return nil, err
	}
	if opts.Probe != nil {
		eng.SetProbe(opts.Probe)
	}
	var run *population.DisclosureRun
	if opts.Resume != nil {
		run, err = eng.ResumeDisclosure(cfg, opts.Resume)
	} else {
		run, err = eng.StartDisclosure(cfg)
	}
	if err != nil {
		return nil, err
	}
	for !run.Done() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, err := run.Step(cfg.CheckEvery); err != nil {
			return nil, err
		}
	}
	return run.Result(), nil
}
