package experiment

import (
	"math"

	"linkpad/internal/analytic"
	"linkpad/internal/core"
	"linkpad/internal/netem"
	"linkpad/internal/population"
)

func init() {
	registerCells("ext-impairments", extImpairmentCells)
	registerCells("ablation-churn", ablationChurnCells)
}

// impairScenario is one capture/path fault profile of the
// ext-impairments sweep.
type impairScenario struct {
	name string
	// tap degrades the adversary's captures (exit tap and, on cascades,
	// the entry recorder); the wire is untouched.
	tap *netem.Impairment
	// path impairs the forward path itself: packets really are lost.
	path *netem.Impairment
}

// impairGE is the bursty-capture chain shared by the GE scenarios:
// stationary bad-state share 1/11, loss 0.5 in bad → mean loss ~4.5%,
// in bursts of mean length 2 packets.
var impairGE = &netem.GilbertElliott{PGoodBad: 0.05, PBadGood: 0.5, LossBad: 0.5}

// impairScenarios spans the tap-quality × loss-rate axis: clean, an
// i.i.d. tap-loss ramp, a bursty tap with duplication and reordering,
// and bursty loss on the forward path itself.
var impairScenarios = []impairScenario{
	{name: "clean"},
	{name: "tap-loss2", tap: &netem.Impairment{LossProb: 0.02}},
	{name: "tap-loss5", tap: &netem.Impairment{LossProb: 0.05}},
	{name: "tap-loss10", tap: &netem.Impairment{LossProb: 0.10}},
	{name: "tap-ge", tap: &netem.Impairment{GE: impairGE, DupProb: 0.01, ReorderProb: 0.02, ReorderDepth: 4}},
	{name: "path-ge", path: &netem.Impairment{GE: impairGE}},
}

// meanTapLoss is the scenario's stationary capture-loss rate (0 for the
// path scenario: the tap sees everything that survives the wire).
func (sc *impairScenario) meanTapLoss() float64 {
	if sc.tap == nil {
		return 0
	}
	loss := sc.tap.LossProb
	if sc.tap.GE != nil {
		loss += (1 - loss) * sc.tap.GE.MeanLoss()
	}
	return loss
}

// impairProtocols indexes the protocol axis of the sweep.
const (
	impairReplica = iota
	impairSession
	impairCascade
	numImpairProtocols
)

// binaryAnonymity converts a two-class detection rate into a degree of
// anonymity: the normalized entropy of the adversary's per-trial success
// probability, 1 at chance (0.5) and 0 at certain identification. It is
// the replica/session analogue of the cascade's match-posterior entropy.
func binaryAnonymity(acc float64) float64 {
	if acc <= 0 || acc >= 1 {
		return 0
	}
	return -(acc*math.Log(acc) + (1-acc)*math.Log(1-acc)) / math.Log(2)
}

// extImpairmentCells measures how the attacks degrade when the
// adversary's capture — or the path itself — is impaired: detection
// accuracy and degree of anonymity per protocol (replica, session,
// cascade) across tap-loss rates, a bursty tap with duplication and
// reordering, and bursty forward-path loss. The observation-side
// finding mirrors ablation-tap's: i.i.d. capture loss thins the PIAT
// sample but barely moves the features, while bursty loss and
// reordering distort the *gap structure* the features read, so the GE
// tap costs more accuracy per lost packet. Path loss differs in kind:
// it changes the wire itself (both sides of the cascade tap see it
// consistently), so the correlation attack survives it better than the
// same loss applied to the capture. Every impairment is a seeded
// per-stream draw, so the table is byte-identical at any worker count.
var extImpairmentCells = &cellExperiment{
	title: "Attack degradation under capture and path impairments, per protocol",
	columns: []string{"protocol", "scenario", "tap_loss", "accuracy",
		"anonymity"},
	ncells: func(Options) int { return numImpairProtocols * len(impairScenarios) },
	run: func(o Options, cell int) ([]float64, error) {
		proto := cell / len(impairScenarios)
		sc := &impairScenarios[cell%len(impairScenarios)]
		cfg := labConfig(o)
		cfg.TapImpair = sc.tap
		cfg.EntryTapImpair = sc.tap
		cfg.PathImpair = sc.path
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		var acc, anon float64
		switch proto {
		case impairReplica:
			res, err := runAttack(o, sys, core.AttackConfig{
				Feature:        analytic.FeatureEntropy,
				WindowSize:     1000,
				TrainWindows:   o.windows(120),
				EvalWindows:    o.windows(120),
				SkipEmpiricalR: true,
			})
			if err != nil {
				return nil, err
			}
			acc, anon = res.DetectionRate, binaryAnonymity(res.DetectionRate)
		case impairSession:
			res, err := runSessionAttack(o, sys, core.SessionAttackConfig{
				Feature:       analytic.FeatureEntropy,
				WindowSize:    500,
				TrainSessions: 8,
				TrainWindows:  o.windows(120),
				EvalSessions:  o.windows(60),
				MaxWindows:    12,
				Confidence:    0.99,
			})
			if err != nil {
				return nil, err
			}
			acc, anon = res.DetectionRate, binaryAnonymity(res.DetectionRate)
		case impairCascade:
			res, err := runCascadeCorrelation(o, sys, core.CascadeSpec{
				Hops:  make([]core.CascadeHop, 1),
				Flows: 16,
			}, core.CascadeCorrConfig{
				Duration:     cascadeDuration(o),
				Features:     secondOrderFeatures,
				TrainWindows: o.windows(120),
			})
			if err != nil {
				return nil, err
			}
			acc, anon = res.Accuracy, res.DegreeOfAnonymity
		}
		return []float64{float64(proto), float64(cell % len(impairScenarios)),
			sc.meanTapLoss(), acc, anon}, nil
	},
	notes: func(o Options, t *Table) {
		t.Notef("protocol codes: 0=replica (entropy, n=1000) 1=session (anytime entropy, n=500, 99%% confidence) 2=cascade (1 CIT hop, 16 flows, %.0f s)", cascadeDuration(o))
		for i := range impairScenarios {
			sc := &impairScenarios[i]
			t.Notef("scenario %d = %s (mean tap loss %.3f)", i, sc.name, sc.meanTapLoss())
		}
		t.Notef("tap scenarios impair only the captures (exit tap and cascade entry recorder); path-ge loses packets on the wire itself")
		t.Notef("GE chain: P(g->b)=0.05 P(b->g)=0.5 loss(bad)=0.5 — ~4.5%% loss in bursts of mean length 2; tap-ge adds 1%% duplication and 2%% reordering at depth 4")
		t.Notef("anonymity: cascade reports its match-posterior entropy; replica/session report the normalized binary entropy of the detection rate (1 = chance)")
	},
}

// churnFractions is the ablation-churn online-fraction axis: the
// stationary share of time each user is online (1 = static population).
var churnFractions = []float64{1, 0.75, 0.5, 0.25}

// churnPeriod is the mean churn cycle (MeanOn + MeanOff) in stream
// seconds. At the lab population's round cadence (~20 ms) an offline
// stretch spans on the order of a hundred rounds, so runs cross many
// presence cycles and the estimators see both regimes of every target.
const churnPeriod = 4.0

// ablationChurnCells measures how statistical disclosure degrades under
// population churn, with and without the churn-aware estimator. Users
// join and leave on independent seeded presence schedules. Two opposing
// forces move rounds-to-disclosure: offline stretches censor the target
// (fewer with-rounds per wall-clock round), while a thinner co-online
// population concentrates each round on fewer senders, strengthening
// the per-round contrast — so moderate churn can even *help* the
// attack before heavy churn stalls it. The churn-aware estimator masks
// rounds where the target was provably offline (presence is connection
// metadata the mix-side adversary observes) instead of booking them as
// without-rounds: under the independent churn simulated here the naive
// estimator is already unbiased, so the mask's price — fewer effective
// without-rounds, visible as slower disclosure at low online
// fractions — is exactly what the table quantifies. The mask is the
// robust choice when presence correlates across users (diurnal
// populations), where the naive without-mean samples the co-online
// population of other times; see DisclosureConfig.ChurnAware.
var ablationChurnCells = &cellExperiment{
	title: "SDA under population churn: naive vs churn-aware estimator across online fractions",
	columns: []string{"online_frac", "churn_aware", "disclosed_frac",
		"mean_rounds", "mean_rounds_with", "mean_anonymity"},
	ncells: func(Options) int { return len(churnFractions) * 2 },
	run: func(o Options, cell int) ([]float64, error) {
		frac := churnFractions[cell/2]
		aware := cell%2 == 1
		sys, err := core.NewSystem(labConfig(o))
		if err != nil {
			return nil, err
		}
		spec := core.PopulationSpec{
			Users:      24,
			Recipients: 60,
			CoverRate:  1,
		}
		if frac < 1 {
			spec.Churn = &core.ChurnSpec{
				MeanOn:  churnPeriod * frac,
				MeanOff: churnPeriod * (1 - frac),
			}
		}
		res, err := runDisclosure(o, sys, spec, population.DisclosureConfig{
			MaxRounds:  disclosureRounds(o),
			ChurnAware: aware,
		})
		if err != nil {
			return nil, err
		}
		awareCode := 0.0
		if aware {
			awareCode = 1
		}
		return []float64{frac, awareCode, res.DisclosedFrac, res.MeanRounds,
			meanRoundsWith(res), res.MeanAnonymity}, nil
	},
	notes: func(o Options, t *Table) {
		t.Notef("24 users, 60 recipients, cover rate 1, batch 8, budget %d rounds; undisclosed targets censor mean_rounds", disclosureRounds(o))
		t.Notef("churn: per-user alternating exponential presence, cycle %.0f s at the listed online fraction; online_frac 1 = static population (both estimators identical)", churnPeriod)
		t.Notef("churn_aware 1 masks rounds where the target was offline at the mix flush instead of booking them as without-rounds; under independent churn the mask trades without-round samples for robustness to correlated presence")
		t.Notef("rounds count all mix rounds, including those the target sat out — wall-clock cost to the adversary, not effective samples")
	},
}
