package population

import (
	"errors"
	"fmt"

	"linkpad/internal/adversary"
	"linkpad/internal/bayes"
	"linkpad/internal/par"
)

// Flow correlation (flowcorr.go): the per-flow population attack. Every
// user's padded link appears at the egress as an unlabeled flow; the
// global adversary must match each egress flow back to its ingress user.
// Two signals are combined:
//
//   - the throughput fingerprint (Mittal et al.): windowed packet-count
//     vectors of the ingress and egress sides, matched by Pearson
//     correlation (adversary.RateVector / adversary.Pearson). This
//     identifies the *individual* whenever payload rate fluctuations
//     survive the padding;
//   - the paper's PIAT class features (adversary.MultiPipeline reduced to
//     bayes class posteriors): even when padding flattens the throughput
//     fingerprint, the µs-scale timing leak still identifies the flow's
//     rate *class*, shrinking the anonymity set to the class population.
//
// The ingress side is unpadded, so the adversary reads each sender's
// class off the ingress stream directly; we grant it the true ingress
// class. Scores are combined additively in log space and flows are
// assigned greedily, highest score first.

// Flow is one user's padded link as the global adversary observes it:
// ingress arrival times (the user's sends, cover included — the tap
// cannot tell them apart) and egress departure times of the padded flow.
type Flow struct {
	// Class is the ground-truth rate class (known to the adversary from
	// the unpadded ingress side).
	Class int
	// Ingress holds absolute ingress arrival times.
	Ingress []float64
	// Egress holds absolute egress departure times.
	Egress []float64
}

// FlowSimulator produces user u's flow observation over the duration.
// Implementations must derive all randomness from the user index so that
// flows can be simulated in parallel deterministically (core provides
// one wired to the System description).
type FlowSimulator func(user int, duration float64) (*Flow, error)

// FlowCorrConfig parameterizes the flow-correlation attack.
type FlowCorrConfig struct {
	// Duration is the observation time in stream seconds (required).
	Duration float64
	// RateWindow is the throughput-fingerprint bin width in seconds
	// (0 = 1 s). The fingerprint has floor(Duration/RateWindow) bins.
	RateWindow float64
	// CorrWeight scales the rate-correlation term against the class
	// log-posterior term (0 = 8; correlation spans [-1, 1], posteriors
	// span [-adversary.PostFloor, 0]).
	CorrWeight float64
	// FeatureWindow is the PIAT count reduced to one feature value per
	// flow (0 = 200); it must match the window the classifiers were
	// trained at.
	FeatureWindow int
	// Classifiers holds one per-feature class classifier (naive-Bayes
	// combined); may be empty for a pure rate-correlation attack.
	// Extractors must parallel it.
	Classifiers []*bayes.Classifier
	// Extractors are the feature extractors matching Classifiers.
	Extractors []adversary.Extractor
	// MaskAbsent makes the rate correlation churn-aware: each pair's
	// correlation is computed only over the windows where the egress flow
	// emitted packets, masking the dark windows of an offline user. The
	// mask is derived from the egress observation alone (a padded link
	// emits in every window it is up), so it leaks nothing the adversary
	// does not already see. Without it, population churn imprints the
	// same on/off signature on every co-churning flow and the correlation
	// silently biases toward presence overlap.
	MaskAbsent bool
	// Workers bounds the per-user simulation parallelism; results are
	// identical at any width. Zero means all CPUs.
	Workers int
}

// withDefaults fills zero fields.
func (c FlowCorrConfig) withDefaults() FlowCorrConfig {
	if c.RateWindow == 0 {
		c.RateWindow = 1
	}
	if c.CorrWeight == 0 {
		c.CorrWeight = 8
	}
	if c.FeatureWindow == 0 {
		c.FeatureWindow = 200
	}
	return c
}

// FlowCorrResult reports one flow-correlation attack.
type FlowCorrResult struct {
	// Users is the population size (= number of flows).
	Users int
	// Accuracy is the fraction of egress flows assigned to their true
	// ingress user by the greedy matching.
	Accuracy float64
	// ClassAccuracy is the fraction of flows whose rate class the PIAT
	// features identified (0 when no classifiers were supplied).
	ClassAccuracy float64
	// MeanRank averages the rank (1 = best) of the true user in each
	// flow's score ordering — 1 means every flow ranks its own user
	// first even before the matching resolves conflicts.
	MeanRank float64
	// MeanCorrTrue averages the rate correlation of the true
	// (user, flow) pairs: the raw strength of the throughput
	// fingerprint that survives the padding.
	MeanCorrTrue float64
}

// flowObs is the reduced observation of one user/flow pair. The
// throughput fingerprints are stored sparse — only the non-empty rate
// bins — and materialized into dense scratch for scoring, so resident
// fingerprint memory scales with traffic actually observed rather than
// with users × bins. A mostly idle or churned-out flow costs its active
// windows only; the Pearson scoring sees the exact dense vectors
// RateVector produced.
type flowObs struct {
	ing sparseVec
	eg  sparseVec
}

// CorrelateFlows runs the attack end to end: simulate every user's flow
// (in parallel, users as the unit of parallelism), reduce each side to
// its throughput fingerprint and class posteriors, score every
// (user, flow) pair, and match greedily. Flow f's true ingress user is
// user f; the adversary's scores never read that identity, only the
// observations.
func CorrelateFlows(sim FlowSimulator, users int, cfg FlowCorrConfig) (*FlowCorrResult, error) {
	cfg = cfg.withDefaults()
	if sim == nil {
		return nil, errors.New("population: nil flow simulator")
	}
	if users < 2 {
		return nil, errors.New("population: need at least two users")
	}
	if !(cfg.Duration > 0) {
		return nil, errors.New("population: flow duration must be positive")
	}
	workers := min(par.Workers(cfg.Workers), users)
	exitClasses, err := adversary.NewExitClasses(cfg.Classifiers, cfg.Extractors, cfg.FeatureWindow, workers)
	if err != nil {
		return nil, fmt.Errorf("population: %w", err)
	}
	// Floor with an epsilon so a float-noisy integral ratio (60*0.7/1 =
	// 41.99999...) keeps its last window instead of silently dropping the
	// tail of both fingerprints.
	bins := int(cfg.Duration/cfg.RateWindow + 1e-9)
	if bins < 2 {
		return nil, errors.New("population: need at least two rate windows over the duration")
	}

	obs := make([]flowObs, users)
	classes := make([]int, users)
	posts := make([][]float64, users)     // egress class log posteriors
	rateScr := make([][]float64, workers) // per-worker dense bin scratch
	for i := range rateScr {
		rateScr[i] = make([]float64, bins)
	}
	err = par.MapWorker(users, workers, func(worker, u int) error {
		flow, err := sim(u, cfg.Duration)
		if err != nil {
			return fmt.Errorf("population: flow %d: %w", u, err)
		}
		o := &obs[u]
		classes[u] = flow.Class
		dense := rateScr[worker]
		for i := range dense {
			dense[i] = 0
		}
		if _, err := adversary.RateVector(flow.Ingress, 0, cfg.RateWindow, dense); err != nil {
			return err
		}
		o.ing.compress(dense)
		for i := range dense {
			dense[i] = 0
		}
		if _, err := adversary.RateVector(flow.Egress, 0, cfg.RateWindow, dense); err != nil {
			return err
		}
		o.eg.compress(dense)
		if posts[u], err = exitClasses.LogPosts(worker, flow.Egress); err != nil {
			return fmt.Errorf("population: flow %d: %w", u, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Score every (user, flow) pair: rate correlation plus the egress
	// flow's posterior for the ingress user's class. The sparse
	// fingerprints materialize into two reusable dense vectors — the
	// egress side once per flow, the ingress side per pair — so the
	// Pearson terms are computed over the identical dense vectors the
	// previous dense storage held.
	score := make([]float64, users*users)
	corrTrue := 0.0
	egDense := make([]float64, bins)
	ingDense := make([]float64, bins)
	var mask []bool
	if cfg.MaskAbsent {
		mask = make([]bool, bins)
	}
	for f := 0; f < users; f++ {
		obs[f].eg.scatter(egDense)
		if mask != nil {
			for i, v := range egDense {
				mask[i] = v > 0
			}
		}
		for u := 0; u < users; u++ {
			obs[u].ing.scatter(ingDense)
			var corr float64
			var err error
			if mask != nil {
				corr, err = adversary.PearsonMasked(ingDense, egDense, mask)
			} else {
				corr, err = adversary.Pearson(ingDense, egDense)
			}
			if err != nil {
				return nil, err
			}
			v := cfg.CorrWeight * corr
			if posts[f] != nil {
				v += posts[f][classes[u]]
			}
			score[u*users+f] = v
			if u == f {
				corrTrue += corr
			}
		}
	}

	sum, err := adversary.SummarizeMatch(score, users, posts, classes)
	if err != nil {
		return nil, err
	}
	return &FlowCorrResult{Users: users, Accuracy: sum.Accuracy, ClassAccuracy: sum.ClassAccuracy,
		MeanRank: sum.MeanRank, MeanCorrTrue: corrTrue / float64(users)}, nil
}
