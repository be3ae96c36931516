// Package linkpad is a reproduction, as a reusable Go library, of
// "Analytical and Empirical Analysis of Countermeasures to Traffic
// Analysis Attacks" (Fu, Graham, Bettati, Zhao, Xuan — ICPP 2003).
//
// The library models a complete link-padding deployment: payload traffic
// entering a sender security gateway whose timer (constant-interval CIT or
// variable-interval VIT) emits one encrypted constant-size packet per
// fire — payload if queued, dummy otherwise — plus the unprotected router
// path an adversary can tap. The adversary applies the paper's statistical
// attack: sample mean, sample variance, or sample entropy of packet
// inter-arrival times, classified with Bayes rules trained on Gaussian
// kernel density estimates. The security metric throughout is the
// detection rate: the probability the adversary correctly identifies the
// payload rate.
//
// Three layers are exposed:
//
//   - System / Config: declaratively describe a deployment and run
//     simulated attacks against it through the unified scenario API
//     (System.Build a Spec into a Scenario, Scenario.Run under shared
//     RunOptions) — the replica-window attack (AttackSetSpec), the
//     continuous-stream session attack (SessionAttackSpec), statistical
//     disclosure (DisclosureSpec), flow correlation against populations
//     and cascades (FlowCorrelationSpec, CascadeCorrelationSpec), and
//     the active watermark attack (ActiveDetectionSpec) — predict
//     detection rates with the paper's closed-form theorems
//     (TheoreticalDetectionRate), and solve the design problem of
//     choosing σ_T (DesignVIT, CalibrateVIT).
//   - Features and theorems: the analytic detection-rate formulas are
//     re-exported (DetectionRateMean/Variance/Entropy, SampleSize*).
//   - Experiments: RunExperiment regenerates every figure of the paper's
//     evaluation section by name (see ExperimentNames).
//
// The package root is a facade over the internal implementation packages;
// see DESIGN.md for the system inventory, testdata/golden/ for the
// recorded result tables and BENCH.json for the timing trajectory.
package linkpad

import (
	"linkpad/internal/active"
	"linkpad/internal/adversary"
	"linkpad/internal/analytic"
	"linkpad/internal/cascade"
	"linkpad/internal/core"
	"linkpad/internal/experiment"
	"linkpad/internal/population"
	"linkpad/internal/sizes"
)

// Version identifies this release of the reproduction.
const Version = "1.0.0"

// System assembly (see internal/core).
type (
	// System is a validated link-padding deployment description.
	System = core.System
	// Config describes a deployment: timer policy, gateway jitter model,
	// payload rate hypotheses, router path, and tap imperfections.
	Config = core.Config
	// Rate is one payload-rate hypothesis.
	Rate = core.Rate
	// HopSpec describes one router of the unprotected path.
	HopSpec = core.HopSpec
	// PayloadModel selects the payload arrival process.
	PayloadModel = core.PayloadModel
	// AttackConfig parameterizes a simulated adversary.
	AttackConfig = core.AttackConfig
	// AttackResult reports a simulated attack: measured detection rate,
	// confusion matrix, and the closed-form prediction at the measured
	// variance ratio.
	AttackResult = core.AttackResult
	// Session is one continuous observation of a class: consecutive
	// windows share carried stream state, implementing the paper's
	// sequential-observation threat model (System.NewSession).
	Session = core.Session
	// SessionAttackConfig parameterizes the continuous-stream attack with
	// anytime (SPRT-style) decisions (SessionAttackSpec).
	SessionAttackConfig = core.SessionAttackConfig
	// SessionAttacker is a trained continuous-stream adversary
	// (System.TrainSessionAttack) whose Evaluate runs the anytime attack
	// under different run-time knobs without retraining.
	SessionAttacker = core.SessionAttacker
	// SessionAttackResult reports a continuous-stream attack: detection
	// rate of the anytime decisions, decision coverage, and
	// time-to-detection statistics.
	SessionAttackResult = core.SessionAttackResult
)

// Payload models.
const (
	PayloadPoisson = core.PayloadPoisson
	PayloadCBR     = core.PayloadCBR
	PayloadOnOff   = core.PayloadOnOff
)

// Unified scenario API (see internal/core): every observation protocol
// is reachable through one shape. System.Build validates a Spec into a
// runnable Scenario; Scenario.Run executes it under the shared
// RunOptions (worker width, master seed, observation-budget scale,
// telemetry probe, checkpoint resume) and returns the ScenarioResult
// union.
type (
	// Spec describes one scenario: a protocol plus its parameters. The
	// six spec types below are the complete (sealed) set.
	Spec = core.Spec
	// Scenario is a validated, system-bound attack ready to run.
	Scenario = core.Scenario
	// RunOptions are the execution knobs shared by every scenario.
	RunOptions = core.RunOptions
	// ScenarioResult is the outcome union of one scenario run: exactly
	// one field is non-nil, matching the spec the scenario was built
	// from.
	ScenarioResult = core.Result
	// AttackSetSpec is the replica-window attack for one or more feature
	// statistics.
	AttackSetSpec = core.AttackSetSpec
	// SessionAttackSpec is the continuous-stream attack with anytime
	// decisions.
	SessionAttackSpec = core.SessionAttackSpec
	// DisclosureSpec is the round-based statistical disclosure attack
	// against a user population.
	DisclosureSpec = core.DisclosureSpec
	// FlowCorrelationSpec is the per-flow correlation attack against a
	// user population.
	FlowCorrelationSpec = core.FlowCorrelationSpec
	// CascadeCorrelationSpec is the end-to-end correlation attack
	// against a multi-hop cascade.
	CascadeCorrelationSpec = core.CascadeCorrelationSpec
	// ActiveDetectionSpec is the active watermark attack.
	ActiveDetectionSpec = core.ActiveDetectionSpec
)

// NewSystem validates cfg and returns a System.
func NewSystem(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// DefaultLabConfig returns the paper's §5 baseline configuration: CIT
// padding with τ = 10 ms, payload at 10 or 40 pps with equal priors, and
// the adversary tapping the sender gateway's output.
func DefaultLabConfig() Config { return core.DefaultLabConfig() }

// Feature identifies the adversary's statistic.
type Feature = analytic.Feature

// The three feature statistics studied by the paper, plus the
// interquartile-range extension (empirical only; no closed-form theorem).
const (
	FeatureMean     = analytic.FeatureMean
	FeatureVariance = analytic.FeatureVariance
	FeatureEntropy  = analytic.FeatureEntropy
	FeatureIQR      = analytic.FeatureIQR
)

// DetectionRateMean returns Theorem 1's detection rate for the
// sample-mean feature at PIAT variance ratio r (independent of sample
// size; exactly 0.5 at r = 1).
func DetectionRateMean(r float64) (float64, error) {
	return analytic.DetectionRateMean(r)
}

// DetectionRateVariance returns Theorem 2's detection rate for the
// sample-variance feature at variance ratio r and sample size n.
func DetectionRateVariance(r float64, n int) (float64, error) {
	return analytic.DetectionRateVariance(r, n)
}

// DetectionRateEntropy returns Theorem 3's detection rate for the
// sample-entropy feature at variance ratio r and sample size n.
func DetectionRateEntropy(r float64, n int) (float64, error) {
	return analytic.DetectionRateEntropy(r, n)
}

// SampleSizeVariance returns the sample size needed for the variance
// feature to reach detection rate p at variance ratio r (the paper's
// Fig. 5b curve; +Inf at r = 1).
func SampleSizeVariance(r, p float64) (float64, error) {
	return analytic.SampleSizeVariance(r, p)
}

// SampleSizeEntropy returns the sample size needed for the entropy
// feature to reach detection rate p at variance ratio r.
func SampleSizeEntropy(r, p float64) (float64, error) {
	return analytic.SampleSizeEntropy(r, p)
}

// Population scale (see internal/population): N senders share the padded
// infrastructure and a global passive adversary runs the canonical
// population attacks — round-based statistical disclosure against the
// batching mix (DisclosureSpec) and per-flow throughput-fingerprint
// correlation against padded links (FlowCorrelationSpec).
type (
	// PopulationSpec describes the user population: size, rate-class
	// mix, recipient profiles, and cover traffic.
	PopulationSpec = core.PopulationSpec
	// PopulationEngine is the running multi-user simulation
	// (System.NewPopulation) emitting threshold-mix rounds.
	PopulationEngine = population.Engine
	// DisclosureConfig parameterizes the statistical disclosure attack:
	// batch, mix policy, estimator, targets, budget.
	DisclosureConfig = population.DisclosureConfig
	// MixPolicySpec configures the disclosure run's round-forming mix
	// policy (DisclosureConfig.Mix): threshold, pool or timed.
	MixPolicySpec = population.MixSpec
	// MixPolicyKind selects the mix's batching discipline.
	MixPolicyKind = population.MixKind
	// EstimatorKind selects the disclosure estimator (classic
	// round-contrast, least-squares, or iterative ML).
	EstimatorKind = population.EstimatorKind
	// DummyPolicy selects how the population addresses its cover
	// messages (PopulationSpec.Dummies): none, uniform receiver-bound,
	// or adaptive suspect-targeting.
	DummyPolicy = population.DummyPolicy
	// DisclosureResult reports rounds-to-disclosure and the targets'
	// residual degree of anonymity.
	DisclosureResult = population.DisclosureResult
	// DisclosureState is a serializable mid-run disclosure checkpoint
	// (DisclosureRun.Snapshot), resumable through RunOptions.Resume or
	// PopulationEngine.ResumeDisclosure.
	DisclosureState = population.DisclosureState
	// FlowCorrConfig parameterizes the per-flow correlation attack.
	FlowCorrConfig = core.FlowCorrConfig
	// FlowCorrResult reports the flow-matching accuracy, class accuracy,
	// throughput-fingerprint strength and degree of anonymity: the same
	// flow-correlation attack CascadeResult reports on routes.
	FlowCorrResult = adversary.Correlation
)

// The SDA arms race's three axes (DisclosureConfig.Mix/.Estimator and
// PopulationSpec.Dummies). Zero values reproduce the original attack:
// threshold mix, classic estimator, no dummy policy.
const (
	MixThreshold = population.MixThreshold
	MixPool      = population.MixPool
	MixTimed     = population.MixTimed

	EstimatorClassic      = population.EstimatorClassic
	EstimatorLeastSquares = population.EstimatorLeastSquares
	EstimatorML           = population.EstimatorML

	DummyNone     = population.DummyNone
	DummyUniform  = population.DummyUniform
	DummyAdaptive = population.DummyAdaptive
)

// Multi-hop cascades (see internal/cascade): a route of K padded hops —
// each composing its own timer policy or batching mix, host jitter, and
// outgoing link — observed end to end by an adversary who taps both the
// route's entry and its exit (System.NewCascade,
// CascadeCorrelationSpec).
type (
	// CascadeSpec describes a multi-hop route topology: per-hop padding
	// stages plus the concurrent end-to-end flows.
	CascadeSpec = core.CascadeSpec
	// CascadeHop describes one padded hop of a route.
	CascadeHop = core.CascadeHop
	// CascadePolicy selects a hop's padding stage (CIT, VIT or mix).
	CascadePolicy = core.CascadePolicy
	// CascadeEngine is the instantiated route engine
	// (System.NewCascade), handing out per-flow route observations.
	CascadeEngine = cascade.Engine
	// CascadeCorrConfig parameterizes the end-to-end correlation attack.
	CascadeCorrConfig = core.CascadeCorrConfig
	// CascadeResult reports the end-to-end attack: matching accuracy,
	// exit class accuracy, degree of anonymity, and the per-hop
	// matched-overhead accounting.
	CascadeResult = cascade.Result
)

// Cascade hop policies.
const (
	CascadeCIT = core.CascadeCIT
	CascadeVIT = core.CascadeVIT
	CascadeMix = core.CascadeMix
)

// Active adversary (see internal/active): an attacker with a vantage
// point on the payload side of the countermeasure injects a keyed
// watermark — delay jitter or chaff probes — into each flow before the
// padding and runs a matched-filter detector at the exit tap
// (ActiveDetectionSpec). The scenario crosses any of the four
// observation protocols, so one study compares every countermeasure
// against the same active attack at matched overhead.
type (
	// ActiveSpec describes an active-adversary scenario: who is
	// watermarked, by which mechanism and amplitude, and which
	// observation protocol the flows cross.
	ActiveSpec = core.ActiveSpec
	// ActiveProtocol selects the observation protocol of an active
	// scenario (replica, session, population or cascade).
	ActiveProtocol = core.ActiveProtocol
	// ActiveDetectConfig parameterizes the watermark detection attack.
	ActiveDetectConfig = core.ActiveDetectConfig
	// ActiveEngine is the instantiated watermark engine
	// (System.NewActive), handing out per-flow watermarked observations.
	ActiveEngine = active.Engine
	// ActiveResult reports a watermark detection run: detection rate,
	// key-match accuracy, degree of anonymity, exit class accuracy, and
	// both sides' overhead accounting.
	ActiveResult = active.Result
	// WatermarkMode selects the injection mechanism (delay or chaff).
	WatermarkMode = active.Mode
	// WatermarkKey is a keyed ±1 chip schedule driving an injection.
	WatermarkKey = active.Key
)

// Active-adversary protocols and watermark modes.
const (
	ActiveReplica    = core.ActiveReplica
	ActiveSession    = core.ActiveSession
	ActivePopulation = core.ActivePopulation
	ActiveCascade    = core.ActiveCascade

	WatermarkDelay = active.ModeDelay
	WatermarkChaff = active.ModeChaff
)

// Experiment tables (see internal/experiment).
type (
	// ExperimentTable is one experiment's result series.
	ExperimentTable = experiment.Table
	// ExperimentOptions control Monte Carlo effort and seeding.
	ExperimentOptions = experiment.Options
)

// RunExperiment regenerates one of the paper's figures by ID (e.g.
// "fig4b"); see ExperimentNames for the full set.
func RunExperiment(id string, o ExperimentOptions) (*ExperimentTable, error) {
	return experiment.Run(id, o)
}

// ExperimentNames lists every reproducible figure and extension study.
func ExperimentNames() []string { return experiment.Names() }

// Packet-size camouflage (the paper's variable-size extension, ref. [7];
// see internal/sizes).
type (
	// AdaptiveSpec configures the Timmerman adaptive-masking baseline.
	AdaptiveSpec = core.AdaptiveSpec
	// MixSpec configures the Chaum batch-of-K baseline.
	MixSpec = core.MixSpec
	// SizeProfile is an application packet-size distribution.
	SizeProfile = sizes.Profile
	// SizePadder maps raw packet sizes to wire sizes.
	SizePadder = sizes.Padder
	// SizeAttackConfig parameterizes the size-classification attack.
	SizeAttackConfig = sizes.AttackConfig
	// SizeAttackResult reports a size-classification attack.
	SizeAttackResult = sizes.Result
)

// NewSizeProfile creates a packet-size distribution.
func NewSizeProfile(szs []int, probs []float64) (*SizeProfile, error) {
	return sizes.NewProfile(szs, probs)
}

// NoSizePad transmits raw packet sizes: the insecure baseline.
func NoSizePad() SizePadder { return sizes.NoPad{} }

// NewConstantSizePad pads every packet to a fixed wire size — exact size
// secrecy at a byte cost.
func NewConstantSizePad(target int) (SizePadder, error) {
	return sizes.NewConstantPad(target)
}

// NewBucketSizePad rounds packets up to bucket boundaries.
func NewBucketSizePad(buckets []int) (SizePadder, error) {
	return sizes.NewBucketPad(buckets)
}

// SizeOverhead returns the byte inflation of a padding scheme on a
// profile.
func SizeOverhead(p *SizeProfile, pd SizePadder) float64 {
	return sizes.Overhead(p, pd)
}

// DetectBySize runs the size-classification attack against padded
// application profiles.
func DetectBySize(labels []string, profiles []*SizeProfile, pd SizePadder, cfg SizeAttackConfig) (*SizeAttackResult, error) {
	return sizes.Detect(labels, profiles, pd, cfg)
}
