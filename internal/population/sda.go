package population

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"linkpad/internal/par"
	"linkpad/internal/traffic"
)

// Statistical disclosure (sda.go): the round-based intersection attack.
// The adversary watches the batch mix for many rounds; for a target user
// it estimates the target's recipient distribution from the per-round
// ingress/egress contrast, and disclosure is declared when the
// estimate's top contacts match the target's true contact set stably.
// Cover traffic resists the attack twice over: the target's observable
// sends carry less and less real signal, and everyone else's dummies
// brighten the background noise.
//
// This file is the attack harness; the arms race's three axes live
// beside it:
//
//   - estimator.go: the estimator variants (classic round-contrast,
//     least-squares, iterative ML) behind one interface;
//   - mix.go: the round-forming mix policies (threshold, pool, timed);
//   - dummy.go: the dummy policies resisting the attack (none, uniform
//     receiver-bound, adaptive suspect-targeting).
//
// The estimators are sparse (sparse.go): each target accumulates only
// the recipients actually delivered in its observed rounds, never a
// dense length-R vector, so estimator memory scales with observed
// support rather than with the recipient space. A round reaches them as
// one sorted recipient histogram (rcptHist), which each accumulator
// folds in a single merge pass (sparseVec.fold). Every quantity the
// attack reports — the estimate, the top-k contact test, the entropy —
// is computed from the sparse accumulators bit-identically to the dense
// formulation (absent coordinates are exactly zero, and zero
// coordinates are exact no-ops in every sum); sda_ref_test.go checks
// this against dense reference implementations.

// DisclosureConfig parameterizes one statistical-disclosure run.
type DisclosureConfig struct {
	// Batch is the mix's flush threshold B (messages per round, or the
	// pool mix's flush trigger); 0 selects the default 8.
	Batch int
	// Mix selects the round-forming policy; the zero value is the
	// threshold mix, the engine's original behavior.
	Mix MixSpec
	// Estimator selects the disclosure estimator; the zero value is the
	// classic round-contrast SDA.
	Estimator EstimatorKind
	// Dummies selects the population's dummy policy — how the targets'
	// cover messages are addressed. The zero value (DummyNone) leaves
	// cover traffic, if any, on uniformly random recipients. The core
	// scenario layer copies PopulationSpec.Dummies here.
	Dummies DummyPolicy
	// Targets are the user IDs whose recipient sets the adversary tries
	// to disclose; empty selects 8 users evenly spread over the
	// population (covering every rate class under the striped class
	// assignment).
	Targets []int
	// MaxRounds is the observation budget; targets undisclosed at the
	// budget are censored at MaxRounds. 0 selects the default 4000.
	MaxRounds int
	// CheckEvery is the checkpoint granularity in rounds (0 = 25): the
	// estimate is tested at checkpoints, so rounds-to-disclosure is
	// resolved to this granularity. A target counts as disclosed once
	// its estimate holds for disclosureStreak consecutive checkpoints.
	CheckEvery int
	// ChurnAware masks rounds in which the target was offline (its churn
	// schedule down at the round's flush time) out of the estimator
	// entirely, instead of counting them as "target silent" rounds.
	// Presence is connection metadata the mix-side adversary observes, so
	// the mask uses nothing hidden. The mask conditions both means on the
	// *same* round population — rounds the target could have sent in —
	// which keeps the background cancellation exact even when presence is
	// correlated across users (diurnal populations, flash crowds): there
	// the naive without-mean samples the co-online population of *other
	// times* and inherits spurious contacts from whoever shares the
	// target's offline windows. Under independent per-user churn the
	// naive estimator stays unbiased and the mask mostly costs effective
	// without-rounds (ablation-churn quantifies the trade). No-op without
	// churn.
	ChurnAware bool
	// Workers bounds the engine's per-user generation parallelism and,
	// for the ML estimator, how many targets refresh their EM estimate
	// at once; results are identical at any width. Zero means all CPUs.
	Workers int
}

// WithDefaults returns the configuration with every zero field replaced
// by its default for a users-sized population. StartDisclosure applies
// it internally; callers that step a run by its effective CheckEvery
// call it directly. Idempotent.
func (c DisclosureConfig) WithDefaults(users int) DisclosureConfig {
	return c.withDefaults(users)
}

// disclosureStreak is how many consecutive successful checkpoints a
// target's estimate must hold before the target counts as disclosed: a
// single lucky checkpoint is not disclosure.
const disclosureStreak = 2

// withDefaults fills zero fields.
func (c DisclosureConfig) withDefaults(users int) DisclosureConfig {
	if c.Batch == 0 {
		c.Batch = 8
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 4000
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = 25
	}
	c.Mix = c.Mix.withDefaults()
	if len(c.Targets) == 0 {
		n := 8
		if n > users {
			n = users
		}
		c.Targets = make([]int, n)
		for i := range c.Targets {
			c.Targets[i] = i * users / n
		}
	}
	return c
}

// Validate checks the configuration's shape for a users-sized population
// without an engine — the scenario layer's Build-time validation. It
// never panics, whatever the field values. StartDisclosure re-checks
// everything it needs against the live engine.
func (c DisclosureConfig) Validate(users int) error {
	c = c.withDefaults(users)
	if c.Batch < 1 || c.MaxRounds < 1 || c.CheckEvery < 1 {
		return errors.New("population: disclosure parameters must be positive")
	}
	if c.Workers < 0 {
		return errors.New("population: disclosure workers must be non-negative")
	}
	if !validEstimator(c.Estimator) {
		return fmt.Errorf("population: unknown estimator kind %d", int(c.Estimator))
	}
	if !validDummyPolicy(c.Dummies) {
		return fmt.Errorf("population: unknown dummy policy %d", int(c.Dummies))
	}
	if err := c.Mix.validate(); err != nil {
		return err
	}
	seen := make(map[int]bool, len(c.Targets))
	for _, u := range c.Targets {
		if u < 0 || u >= users {
			return fmt.Errorf("population: target user %d out of range", u)
		}
		if seen[u] {
			return fmt.Errorf("population: duplicate target user %d", u)
		}
		seen[u] = true
	}
	return nil
}

// TargetOutcome reports the attack against one target user.
type TargetOutcome struct {
	// User is the target's user ID.
	User int
	// Disclosed reports whether the contact set was identified within
	// the budget.
	Disclosed bool
	// Rounds is the observed round count at disclosure; MaxRounds
	// (censored) if not disclosed.
	Rounds int
	// RoundsWith counts the rounds in which the target appeared as a
	// sender — the rounds that carry signal.
	RoundsWith int
	// DegreeOfAnonymity is the normalized entropy H(p̂)/ln(R) of the
	// adversary's final recipient estimate: 1 means the estimate is
	// uniform (full anonymity), 0 means it has collapsed to a point.
	DegreeOfAnonymity float64
}

// DisclosureResult reports one statistical-disclosure run.
type DisclosureResult struct {
	// Rounds is how many rounds were observed (the run stops early once
	// every target is disclosed).
	Rounds int
	// Targets holds the per-target outcomes in Targets order.
	Targets []TargetOutcome
	// MeanRounds averages rounds-to-disclosure over all targets,
	// censored values included — the population-level security number.
	MeanRounds float64
	// DisclosedFrac is the fraction of targets disclosed within budget.
	DisclosedFrac float64
	// MeanAnonymity averages the targets' final degree of anonymity.
	MeanAnonymity float64
}

// targetState is the adversary's running bookkeeping for one target: the
// pluggable estimator plus the disclosure-test and dummy-policy state
// shared by every estimator kind.
type targetState struct {
	user       int32
	contacts   []int32 // sorted ascending, the set to identify
	presence   *traffic.OnOffSchedule
	est        estimator
	roundsWith int
	masked     int // rounds skipped because the target was offline
	streak     int
	disclosed  bool
	rounds     int
	dumCount   int     // adaptive dummies re-addressed so far (rotation cursor)
	sus        []int32 // adaptive-dummy suspect scratch, refreshed per round
	susFresh   bool
	due        bool // per-round scratch: the target has a dummy in the round
	sent       bool // per-round scratch
	cnt        int  // per-round scratch: the target's send count
}

// disclosure is one running attack: per-target estimators plus shared
// scratch, sized once so the round loop allocates nothing in steady
// state (estimator inserts stop once each target's observed support
// saturates).
//
// The expensive per-target work — an estimator's ready(), which for ML
// reruns EM — happens in a parallel phase ahead of each sequential pass
// that needs it (checkpoint, applyDummies): due collects the targets,
// and par.MapWorker brings their estimators up to date, one target per
// index. Each target's estimator is private to it, and the sequential
// pass then reads the same state it would have computed itself, so
// results do not depend on the worker count. A refresh runs in its
// worker's scratch (scratch[worker]); the sequential passes use
// scratch[0], which no phase is using then.
type disclosure struct {
	eng       *Engine
	mix       MixPolicy
	cfg       DisclosureConfig
	nrcpt     int
	workers   int
	targets   []targetState
	targetIdx []int32 // user -> target index, -1 if not a target
	topIdx    []int32
	topVal    []float64
	setScr    []int32
	susVal    []float64   // suspect-selection scratch (adaptive dummies)
	due       []int32     // targets of the current parallel phase
	hist      rcptHist    // the current round's recipient histogram
	scratch   []mlScratch // one ML refresh scratch per worker
	// readyDue is the parallel phase's body, built once so that a phase
	// run inline (one worker) allocates nothing.
	readyDue func(worker, i int) error
}

// newDisclosure validates cfg and sizes the estimators. It materializes
// the target users (the adversary knows who it is watching); everyone
// else stays cold until they send.
func newDisclosure(e *Engine, cfg DisclosureConfig) (*disclosure, error) {
	d := &disclosure{
		eng:       e,
		cfg:       cfg,
		nrcpt:     e.nrcpt,
		workers:   1,
		targets:   make([]targetState, len(cfg.Targets)),
		targetIdx: make([]int32, e.n),
		due:       make([]int32, 0, len(cfg.Targets)),
	}
	if cfg.Estimator == EstimatorML {
		// Only ML's ready() (an EM refresh) costs more than a goroutine;
		// the others cache two reciprocals.
		d.workers = par.Workers(cfg.Workers)
	}
	for i := range d.targetIdx {
		d.targetIdx[i] = -1
	}
	maxK := 0
	for i, u := range cfg.Targets {
		if u < 0 || u >= e.n {
			return nil, fmt.Errorf("population: target user %d out of range", u)
		}
		if d.targetIdx[u] >= 0 {
			return nil, fmt.Errorf("population: duplicate target user %d", u)
		}
		d.targetIdx[u] = int32(i)
		cs := e.ContactsOf(u)
		sort.Slice(cs, func(a, b int) bool { return cs[a] < cs[b] })
		if len(cs) > maxK {
			maxK = len(cs)
		}
		d.targets[i] = targetState{
			user:     int32(u),
			contacts: cs,
			est:      newEstimator(cfg.Estimator),
		}
		if cfg.ChurnAware {
			d.targets[i].presence = e.PresenceOf(u)
		}
		if cfg.Dummies == DummyAdaptive {
			d.targets[i].sus = make([]int32, 0, len(cs))
		}
	}
	d.topIdx = make([]int32, maxK)
	d.topVal = make([]float64, maxK)
	d.setScr = make([]int32, maxK)
	d.susVal = make([]float64, maxK)
	d.scratch = make([]mlScratch, d.workers)
	d.readyDue = func(worker, i int) error {
		d.targets[d.due[i]].est.ready(&d.scratch[worker])
		return nil
	}
	return d, nil
}

// observe folds one round into every target's estimator. The round's
// recipients are sorted once into an ascending histogram, which every
// estimator merges into its sparse accumulators in one pass. A
// churn-aware run skips rounds in which the target was offline at the
// flush instant — see DisclosureConfig.ChurnAware. Allocation-free once
// the estimators' supports saturate.
func (d *disclosure) observe(r *Round) {
	d.hist.build(r.Rcpts)
	for i := range d.targets {
		d.targets[i].sent = false
		d.targets[i].cnt = 0
	}
	for _, u := range r.Users {
		if ti := d.targetIdx[u]; ti >= 0 {
			d.targets[ti].sent = true
			d.targets[ti].cnt++
		}
	}
	for i := range d.targets {
		t := &d.targets[i]
		if t.sent {
			t.roundsWith++
		} else if t.presence != nil && !t.presence.UpAt(r.Flush) {
			t.masked++
			continue
		}
		t.est.observe(&d.hist, t.sent, t.cnt)
	}
}

// checkpoint tests every undisclosed target's estimate against its true
// contact set, advancing disclosure streaks; it returns true once every
// target is disclosed. The undisclosed targets' estimators are brought
// up to date in parallel first, so the sequential test below finds them
// clean. Allocation-free at one worker.
func (d *disclosure) checkpoint(round int) (allDone bool) {
	d.due = d.due[:0]
	for i := range d.targets {
		if !d.targets[i].disclosed {
			d.due = append(d.due, int32(i))
		}
	}
	_ = par.MapWorker(len(d.due), d.workers, d.readyDue) // readyDue never fails
	allDone = true
	for i := range d.targets {
		t := &d.targets[i]
		if t.disclosed {
			continue
		}
		if !t.est.ready(&d.scratch[0]) {
			allDone = false
			continue
		}
		k := len(t.contacts)
		top := d.topK(t, k)
		if setsEqual(top, t.contacts, d.setScr) {
			t.streak++
		} else {
			t.streak = 0
		}
		if t.streak >= disclosureStreak {
			t.disclosed = true
			t.rounds = round
		} else {
			allDone = false
		}
	}
	return allDone
}

// topK selects the indices of the k largest estimate entries (ties break
// toward the lower recipient index) into the reusable scratch. The
// selection runs the same ascending-index insertion pass the dense
// estimator did, but only over the candidates that can win: by the
// estimator contract every positive estimate lies inside support(), and
// when fewer than k positives exist the remaining winners are the
// lowest-index zero coordinates, which always lie inside [0, k) (at
// most k−1 of the first k coordinates can be positive then). Iterating
// the ascending merge of [0, k) and the support therefore visits a
// superset of the dense winners in the same order, so the selected set
// is identical.
func (d *disclosure) topK(t *targetState, k int) []int32 {
	idx, val := d.topIdx[:0], d.topVal[:0]
	sup := t.est.support()
	next, si := int32(0), 0
	for int(next) < k || si < len(sup) {
		var i int32
		if int(next) < k && (si >= len(sup) || next <= sup[si]) {
			i = next
			if si < len(sup) && sup[si] == next {
				si++
			}
			next++
		} else {
			i = sup[si]
			si++
		}
		v := t.est.estimateAt(i)
		// Find the insertion point among the current k best.
		if len(idx) == k && v <= val[k-1] {
			continue
		}
		j := len(idx)
		if j < k {
			idx = append(idx, 0)
			val = append(val, 0)
		} else {
			j--
		}
		for j > 0 && v > val[j-1] {
			idx[j], val[j] = idx[j-1], val[j-1]
			j--
		}
		idx[j], val[j] = i, v
	}
	d.topIdx, d.topVal = idx, val
	return idx
}

// setsEqual compares two index sets using scr as sorting scratch; b must
// already be sorted ascending.
func setsEqual(a, b, scr []int32) bool {
	if len(a) != len(b) {
		return false
	}
	scr = scr[:0]
	scr = append(scr, a...)
	for i := 1; i < len(scr); i++ {
		for j := i; j > 0 && scr[j] < scr[j-1]; j-- {
			scr[j], scr[j-1] = scr[j-1], scr[j]
		}
	}
	for i := range scr {
		if scr[i] != b[i] {
			return false
		}
	}
	return true
}

// anonymity returns the normalized entropy of the target's final
// estimate; 1 when the adversary has no estimate at all. By the
// estimator contract every positive estimate coordinate lies inside
// support(), and zero coordinates add exactly 0 to the total and
// nothing to the entropy, so the ascending sweep of the support
// reproduces the dense sweep's floats term for term.
func (d *disclosure) anonymity(t *targetState) float64 {
	if !t.est.ready(&d.scratch[0]) {
		return 1
	}
	var total float64
	for _, i := range t.est.support() {
		total += t.est.estimateAt(i)
	}
	if total <= 0 {
		return 1
	}
	var h float64
	for _, i := range t.est.support() {
		if v := t.est.estimateAt(i); v > 0 {
			p := v / total
			h -= p * math.Log(p)
		}
	}
	return h / math.Log(float64(d.nrcpt))
}

// DisclosureRun is a statistical-disclosure attack in progress: rounds
// are observed until every target's contact set is identified or the
// budget runs out, in steps so a caller can check for cancellation or
// trace progress between them. Observing all MaxRounds rounds through
// any sequence of Step calls produces byte-identical results to one Step
// over the whole budget, at any Workers width. A run that finishes waits
// for the engine's background generation before Step returns, a run
// that fails has none in flight, and a caller that abandons a run early
// calls Stop.
type DisclosureRun struct {
	d        *disclosure
	observed int
	done     bool
	r        Round
}

// StartDisclosure validates cfg against the engine and prepares a
// disclosure run. The run consumes the engine; build a fresh
// engine per run.
func (e *Engine) StartDisclosure(cfg DisclosureConfig) (*DisclosureRun, error) {
	cfg = cfg.withDefaults(e.n)
	if cfg.Batch < 1 || cfg.MaxRounds < 1 || cfg.CheckEvery < 1 {
		return nil, errors.New("population: disclosure parameters must be positive")
	}
	if !validEstimator(cfg.Estimator) {
		return nil, fmt.Errorf("population: unknown estimator kind %d", int(cfg.Estimator))
	}
	if !validDummyPolicy(cfg.Dummies) {
		return nil, fmt.Errorf("population: unknown dummy policy %d", int(cfg.Dummies))
	}
	e.SetWorkers(par.Workers(cfg.Workers))
	d, err := newDisclosure(e, cfg)
	if err != nil {
		return nil, err
	}
	d.mix, err = e.NewMix(cfg.Mix, cfg.Batch)
	if err != nil {
		return nil, err
	}
	return &DisclosureRun{d: d}, nil
}

// Step observes up to n more rounds, stopping early when every target is
// disclosed or the round budget is exhausted. It reports whether the run
// is finished. Each round passes through the dummy policy (dummy.go)
// between the mix flush and the estimators' observation — the defenders
// act on the round before the adversary reads it.
func (run *DisclosureRun) Step(n int) (bool, error) {
	cfg := &run.d.cfg
	for i := 0; i < n && !run.done && run.observed < cfg.MaxRounds; i++ {
		round := run.observed + 1
		if err := run.d.mix.NextRound(&run.r); err != nil {
			// Every error is a failed refill's, and a failed refill
			// starts no background slab: there is nothing to join.
			return false, err
		}
		run.d.applyDummies(&run.r)
		run.d.observe(&run.r)
		run.observed = round
		if round%cfg.CheckEvery == 0 && run.d.checkpoint(round) {
			run.done = true
		}
	}
	if run.observed >= cfg.MaxRounds {
		run.done = true
	}
	if run.done {
		run.Stop()
	}
	return run.done, nil
}

// Stop waits for the slab the engine may be generating in the
// background, so no goroutine of the run outlives it: a live engine
// would otherwise stay reachable, and the garbage collector would size
// the next run's heap goal against it. Stopping twice is harmless, and
// a stopped run may still Step.
func (run *DisclosureRun) Stop() { run.d.eng.join() }

// Observed returns how many rounds the run has folded in so far.
func (run *DisclosureRun) Observed() int { return run.observed }

// Done reports whether the run has finished (all targets disclosed or
// budget exhausted).
func (run *DisclosureRun) Done() bool { return run.done }

// Result assembles the outcome from the estimators' current state. It
// may be called at any point; before Done it reports the attack as of
// the rounds observed so far (undisclosed targets censored at
// MaxRounds).
func (run *DisclosureRun) Result() *DisclosureResult {
	d := run.d
	cfg := &d.cfg
	res := &DisclosureResult{Rounds: run.observed, Targets: make([]TargetOutcome, len(d.targets))}
	var sumRounds, sumAnon float64
	disclosed := 0
	for i := range d.targets {
		t := &d.targets[i]
		rounds := cfg.MaxRounds
		if t.disclosed {
			rounds = t.rounds
			disclosed++
		}
		anon := d.anonymity(t)
		res.Targets[i] = TargetOutcome{
			User:              int(t.user),
			Disclosed:         t.disclosed,
			Rounds:            rounds,
			RoundsWith:        t.roundsWith,
			DegreeOfAnonymity: anon,
		}
		sumRounds += float64(rounds)
		sumAnon += anon
	}
	n := float64(len(d.targets))
	res.MeanRounds = sumRounds / n
	res.DisclosedFrac = float64(disclosed) / n
	res.MeanAnonymity = sumAnon / n
	return res
}
