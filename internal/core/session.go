package core

import (
	"context"
	"errors"
	"fmt"

	"linkpad/internal/adversary"
	"linkpad/internal/analytic"
	"linkpad/internal/bayes"
	"linkpad/internal/netem"
	"linkpad/internal/par"
)

// Session is one continuous observation of a class: a single realization
// of the padded stream — payload arrivals, gateway queue and timer,
// network queues, tap imperfections — whose PIAT sequence is consumed
// incrementally. Consecutive windows read from a Session share the
// stream's carried state and advance its diurnal profiles in real stream
// time, implementing the paper's consecutive-window threat model (where
// PIATSource replicas restart every window at time zero).
//
// A Session is deterministic from (system seed, class, sessionID): the
// same triple reproduces the identical timeline. It is not safe for
// concurrent use; parallelize across sessions, never within one.
type Session struct {
	tap *netem.Differ
}

// NewSession opens a continuous observation session for the class.
// sessionID distinguishes sessions the way streamID distinguishes
// replicas; session streams are domain-separated from replica streams, so
// equal numeric IDs in the two protocols still observe independent
// realizations.
func (s *System) NewSession(class int, sessionID uint64) (*Session, error) {
	tap, err := s.tap(class, sessionID|sessionDomain)
	if err != nil {
		return nil, err
	}
	return &Session{tap: tap}, nil
}

// Source exposes the session's continuous PIAT stream.
func (sn *Session) Source() adversary.PIATSource { return sn.tap }

// Now returns the absolute stream time, in seconds, of the most recently
// observed packet (0 before any observation).
func (sn *Session) Now() float64 { return sn.tap.Now() }

// WarmUp consumes and discards packets PIATs, running the whole chain —
// gateway queue, timer phase, network queues, diurnal clock — past its
// cold-start transient before the adversary starts watching. Counts of
// zero or below are a no-op (warm-up disabled).
func (sn *Session) WarmUp(packets int) { sn.tap.Skip(packets) }

// SessionAttackConfig describes the continuous-stream attack: the
// adversary trains on continuous sessions, then watches further sessions
// window by window, accumulating evidence into an anytime (SPRT-style)
// decision instead of judging every window in isolation.
type SessionAttackConfig struct {
	// Feature is the statistic the adversary classifies on.
	Feature analytic.Feature
	// WindowSize is the per-window sample size n.
	WindowSize int
	// TrainSessions is the number of continuous training sessions per
	// class; the training corpus is drawn as consecutive windows from
	// these streams (warm-up included), matching the run-time protocol.
	TrainSessions int
	// TrainWindows is the total number of training windows per class,
	// split evenly across the training sessions (rounded up).
	TrainWindows int
	// EvalSessions is the number of evaluation sessions per class.
	EvalSessions int
	// MaxWindows is the observation budget per evaluation session: the
	// adversary stops at the anytime decision or after this many windows,
	// whichever comes first.
	MaxWindows int
	// Confidence is the posterior threshold of the anytime decision
	// (e.g. 0.99); it must exceed the largest class prior (enforced —
	// a lower threshold would decide on zero evidence). Confidence 1
	// disables the anytime stop entirely: every session observes its
	// full MaxWindows budget and decides by maximum posterior at the end
	// (used when the per-window statistics must cover a fixed matched
	// budget, as in the ablation-windowing experiment).
	Confidence float64
}

// withDefaults fills zero fields.
func (a SessionAttackConfig) withDefaults() SessionAttackConfig {
	if a.WindowSize == 0 {
		a.WindowSize = 1000
	}
	if a.TrainSessions == 0 {
		a.TrainSessions = 8
	}
	if a.TrainWindows == 0 {
		a.TrainWindows = 200
	}
	if a.EvalSessions == 0 {
		a.EvalSessions = 100
	}
	if a.MaxWindows == 0 {
		a.MaxWindows = 10
	}
	if a.Confidence == 0 {
		a.Confidence = 0.99
	}
	return a
}

// sessionWarmup is the number of PIATs discarded at the start of every
// session (training and evaluation) before observation: 100 packets,
// about 1 s of stream at τ = 10 ms.
const sessionWarmup = 100

// The session attack's phase bases: training sessions spread from base
// 1, evaluation sessions from base 2 (sessionID).
const (
	sessionTrainBase = 1
	sessionEvalBase  = 2
)

// SessionAttackResult reports one continuous-stream attack.
type SessionAttackResult struct {
	// Feature, WindowSize, Sessions, MaxWindows and Confidence echo the
	// attack parameters (Sessions is EvalSessions).
	Feature    analytic.Feature
	WindowSize int
	Sessions   int
	MaxWindows int
	Confidence float64
	// DetectionRate is the probability the session's final decision —
	// the anytime decision, or the maximum-posterior class when the
	// budget runs out undecided — identifies the true class.
	DetectionRate float64
	// Confusion is the confusion matrix of final decisions.
	Confusion *bayes.Confusion
	// DecidedRate is the fraction of sessions whose posterior reached
	// Confidence within the budget.
	DecidedRate float64
	// MeanWindowsToDecision averages the number of observed windows at
	// the moment of decision, over decided sessions (0 if none decided).
	MeanWindowsToDecision float64
	// MeanTimeToDecision averages the observed stream time, in seconds,
	// from the end of warm-up to the decision, over decided sessions.
	MeanTimeToDecision float64
	// WindowDetectionRate is the single-window batch rule's accuracy over
	// every window observed during evaluation. With the anytime stop
	// disabled (Confidence 1) every session contributes its full budget
	// and this is the apples-to-apples number against
	// AttackResult.DetectionRate, measured on continuous windows instead
	// of i.i.d. replicas (ablation-windowing uses it this way). Under an
	// anytime stop it is selection-biased: easy sessions stop early and
	// contribute few windows, hard ones contribute their whole budget.
	WindowDetectionRate float64
}

// validateTrainPhase rejects off-line misconfiguration shared by
// TrainSessionAttack and the session scenario's fail-fast Build.
func (a SessionAttackConfig) validateTrainPhase() error {
	if a.WindowSize < 2 || a.TrainWindows < 2 || a.TrainSessions < 1 {
		return errors.New("core: session attack needs a window size and training windows of at least 2 and at least one training session")
	}
	return nil
}

// validateEvalPhase rejects run-time misconfiguration shared by Evaluate
// and the session scenario's fail-fast Build, so both reject identically.
func (a SessionAttackConfig) validateEvalPhase() error {
	if !(a.Confidence > 0 && a.Confidence <= 1) {
		return errors.New("core: confidence must be in (0,1]; 1 disables the anytime stop")
	}
	if a.EvalSessions < 1 || a.MaxWindows < 1 {
		return errors.New("core: need at least one evaluation session and one window of budget")
	}
	return nil
}

// sessionID derives the ID of session s in a phase's ID range, mirroring
// windowStreamID's spreading.
func sessionID(base uint64, s int) uint64 {
	return base + (uint64(s)+1)<<32
}

// trainSessionSource opens, warms and returns the continuous stream of
// one training session.
func (s *System) trainSessionSource(ctx context.Context, class int) adversary.SourceFactory {
	return func(i int) (adversary.PIATSource, error) {
		if err := context.Cause(ctx); err != nil {
			return nil, err
		}
		sess, err := s.NewSession(class, sessionID(sessionTrainBase, i))
		if err != nil {
			return nil, err
		}
		sess.WarmUp(sessionWarmup)
		return sess.Source(), nil
	}
}

// sessionOutcome is one evaluation session's record; every session writes
// only its own slot, so the reduction is identical at any worker count.
type sessionOutcome struct {
	pred          int
	decided       bool
	windows       int     // windows observed at decision (or budget)
	streamTime    float64 // observed stream seconds at decision
	windowCorrect int     // single-window batch decisions that were right
	windowTotal   int
}

// SessionAttacker is a continuous-stream adversary after the off-line
// phase: classifiers fitted to consecutive training windows, ready to
// evaluate fresh sessions — possibly several times with different
// run-time knobs (confidence, budget, session count) without repeating
// the training simulation.
type SessionAttacker struct {
	sys *System
	cfg SessionAttackConfig // resolved training configuration
	cls *bayes.Classifier
}

// TrainSessionAttack runs the off-line phase of the continuous-stream
// attack: per class, consecutive training windows are drawn from
// continuous sessions (warm-up included, parallel across sessions) and
// the class-conditional feature densities are fitted, on up to
// opts.Workers goroutines. Only the training-phase fields of cfg are
// consumed; pass the evaluation knobs to Evaluate. ctx is checked before
// each training session; once it is done, training fails with its
// cause.
func (s *System) TrainSessionAttack(ctx context.Context, cfg SessionAttackConfig, opts RunOptions) (*SessionAttacker, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validateTrainPhase(); err != nil {
		return nil, err
	}
	if cfg.TrainSessions > cfg.TrainWindows {
		cfg.TrainSessions = cfg.TrainWindows
	}
	exts := []adversary.Extractor{{Feature: cfg.Feature}}
	wps := (cfg.TrainWindows + cfg.TrainSessions - 1) / cfg.TrainSessions
	cls, err := s.fitClasses(false, func(c int) ([][]float64, error) {
		return adversary.SessionFeatureMatrix(s.trainSessionSource(ctx, c), exts,
			cfg.TrainSessions, wps, cfg.WindowSize, opts.Workers)
	})
	if err != nil {
		return nil, err
	}
	return &SessionAttacker{sys: s, cfg: cfg, cls: cls[0]}, nil
}

// Evaluate runs the run-time phase against fresh evaluation sessions:
// anytime classification with the cumulative log-posterior rule,
// reporting detection, decision coverage and time-to-detection
// statistics. The evaluation knobs (EvalSessions, MaxWindows,
// Confidence) come from cfg; the training-phase fields are those the
// attacker was trained with. Sessions run on up to opts.Workers
// goroutines, and results are identical for any worker count. ctx is
// checked before each session; once it is done, Evaluate fails with its
// cause.
func (a *SessionAttacker) Evaluate(ctx context.Context, cfg SessionAttackConfig, opts RunOptions) (*SessionAttackResult, error) {
	eval := a.cfg
	cfg = cfg.withDefaults()
	eval.EvalSessions = cfg.EvalSessions
	eval.MaxWindows = cfg.MaxWindows
	eval.Confidence = cfg.Confidence
	cfg = eval
	if err := cfg.validateEvalPhase(); err != nil {
		return nil, err
	}
	s, cls := a.sys, a.cls
	if cfg.Confidence < 1 {
		// A threshold at or below the largest prior "decides" on zero
		// evidence; reject it rather than return meaningless statistics.
		var maxPrior float64
		for i := 0; i < cls.NumClasses(); i++ {
			if p := cls.Prior(i); p > maxPrior {
				maxPrior = p
			}
		}
		if cfg.Confidence <= maxPrior {
			return nil, fmt.Errorf("core: confidence %v does not exceed the largest class prior %v",
				cfg.Confidence, maxPrior)
		}
	}
	m := len(s.cfg.Rates)
	exts := []adversary.Extractor{{Feature: cfg.Feature}}
	anytime := cfg.Confidence < 1

	// Run-time: every (class, session) pair is an independent continuous
	// observation with its own anytime decision. Feature pipelines are
	// per-worker scratch (the SessionFeatureMatrix pattern); only the
	// Sequential accumulator is per-session state.
	total := m * cfg.EvalSessions
	outcomes := make([]sessionOutcome, total)
	workers := par.Workers(opts.Workers)
	if workers > total {
		workers = total
	}
	pipes := make([]*adversary.MultiPipeline, workers)
	outs := make([][]float64, workers)
	for i := range pipes {
		mp, err := adversary.NewMultiPipeline(exts)
		if err != nil {
			return nil, err
		}
		pipes[i] = mp
		outs[i] = make([]float64, 1)
	}
	err := par.MapWorker(total, workers, func(worker, i int) error {
		if err := context.Cause(ctx); err != nil {
			return err
		}
		class, si := i/cfg.EvalSessions, i%cfg.EvalSessions
		sess, err := s.NewSession(class, sessionID(sessionEvalBase, si))
		if err != nil {
			return err
		}
		sess.WarmUp(sessionWarmup)
		obsStart := sess.Now()
		src := sess.Source()
		seq := cls.NewSequential()
		out := outs[worker]
		rec := &outcomes[i]
		for w := 0; w < cfg.MaxWindows; w++ {
			// Consecutive windows of the one continuous stream.
			if err := pipes[worker].ExtractFrom(src, cfg.WindowSize, out); err != nil {
				return err
			}
			rec.windowTotal++
			// Observe returns the single-window decision from the same
			// density pass the sequential rule consumes.
			if seq.Observe(out[0]) == class {
				rec.windowCorrect++
			}
			if !anytime {
				continue
			}
			if pred, ok := seq.Decided(cfg.Confidence); ok {
				rec.pred, rec.decided = pred, true
				rec.windows = seq.Windows()
				rec.streamTime = sess.Now() - obsStart
				return nil // the anytime adversary stops observing here
			}
		}
		rec.pred, _ = seq.Best()
		rec.windows = seq.Windows()
		rec.streamTime = sess.Now() - obsStart
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Deterministic reduction in session order.
	cm := bayes.NewConfusion(s.Labels())
	var decided, winCorrect, winTotal int
	var sumWindows, sumTime float64
	for i := range outcomes {
		rec := &outcomes[i]
		cm.Add(i/cfg.EvalSessions, rec.pred)
		winCorrect += rec.windowCorrect
		winTotal += rec.windowTotal
		if rec.decided {
			decided++
			sumWindows += float64(rec.windows)
			sumTime += rec.streamTime
		}
	}
	res := &SessionAttackResult{
		Feature:       cfg.Feature,
		WindowSize:    cfg.WindowSize,
		Sessions:      cfg.EvalSessions,
		MaxWindows:    cfg.MaxWindows,
		Confidence:    cfg.Confidence,
		DetectionRate: cm.DetectionRate(),
		Confusion:     cm,
		DecidedRate:   float64(decided) / float64(total),
	}
	if decided > 0 {
		res.MeanWindowsToDecision = sumWindows / float64(decided)
		res.MeanTimeToDecision = sumTime / float64(decided)
	}
	if winTotal > 0 {
		res.WindowDetectionRate = float64(winCorrect) / float64(winTotal)
	}
	return res, nil
}

// sessionAttack runs the continuous-stream attack end to end:
// TrainSessionAttack followed by Evaluate with the same configuration.
// Sessions (training and evaluation) are deterministic from (seed,
// class, sessionID) and run on up to opts.Workers goroutines; results are
// identical for any worker count. Use the two phases separately to
// evaluate one training under several run-time knobs.
func (s *System) sessionAttack(ctx context.Context, cfg SessionAttackConfig, opts RunOptions) (*SessionAttackResult, error) {
	cfg = cfg.withDefaults()
	// Fail fast on run-time misconfiguration before paying for training.
	if err := cfg.validateEvalPhase(); err != nil {
		return nil, err
	}
	if m := len(s.cfg.Rates); cfg.Confidence < 1 && cfg.Confidence <= 1/float64(m) {
		// Training uses equal priors; Evaluate re-checks against the
		// trained classifier.
		return nil, fmt.Errorf("core: confidence %v does not exceed the equal class prior 1/%d",
			cfg.Confidence, m)
	}
	att, err := s.TrainSessionAttack(ctx, cfg, opts)
	if err != nil {
		return nil, err
	}
	return att.Evaluate(ctx, cfg, opts)
}
