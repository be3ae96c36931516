package adversary

import (
	"errors"
	"fmt"

	"linkpad/internal/bayes"
	"linkpad/internal/par"
)

// Flow correlation (flowcorr.go): the end-to-end attack on populations
// and cascades. The adversary taps every flow's entry and exit and must
// match each unlabeled exit flow back to its entry flow. Two signals are
// combined:
//
//   - the throughput fingerprint (Mittal et al.): windowed packet-count
//     vectors of the entry and exit sides, matched by Pearson
//     correlation (RateVector / Pearson). It identifies the individual
//     flow whenever payload rate fluctuations survive the padding;
//   - the paper's PIAT class features at the exit (ExitClasses): even
//     when padding flattens the throughput fingerprint, the µs-scale
//     timing leak may still identify the flow's rate class, shrinking
//     the anonymity set to the class population. The entry side is
//     unpadded, so the adversary reads each flow's true class off it
//     directly.
//
// Scores combine additively in log space, flows are assigned greedily
// (SummarizeMatch), and the softmax over each exit flow's score column
// yields its degree of anonymity (MeanAnonymity).

// FlowObs is one flow as the adversary observes it.
type FlowObs struct {
	// Class is the flow's true rate class, read off the unpadded entry.
	Class int
	// Entry holds the entry-tap times and Exit the ascending exit times,
	// both in absolute stream seconds.
	Entry, Exit []float64
}

// CorrConfig parameterizes the flow-correlation attack.
type CorrConfig struct {
	// Duration is the observation time in stream seconds (required).
	Duration float64
	// RateWindow is the throughput-fingerprint bin width in seconds
	// (0 = 1 s). The fingerprint has floor(Duration/RateWindow) bins.
	RateWindow float64
	// CorrWeight scales the rate-correlation term against the class
	// log-posterior term (0 = 8; correlation spans [-1, 1], posteriors
	// span [-PostFloor, 0] per classifier).
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
	Extractors []Extractor
	// Workers bounds the per-flow observation parallelism; results are
	// identical at any width. Zero means all CPUs.
	Workers int
}

// withDefaults fills zero fields.
func (c CorrConfig) withDefaults() CorrConfig {
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

// Correlation reports one flow-correlation attack.
type Correlation struct {
	// Flows is the number of flows matched.
	Flows int
	// Accuracy is the fraction of exit flows assigned to their true
	// entry flow by the greedy matching.
	Accuracy float64
	// ClassAccuracy is the fraction of flows whose rate class the exit
	// PIAT features identified (0 when no classifiers were supplied).
	ClassAccuracy float64
	// MeanRank averages the rank (1 = best) of the true entry flow in
	// each exit flow's score ordering — 1 means every flow ranks its own
	// entry first even before the matching resolves conflicts.
	MeanRank float64
	// MeanCorrTrue averages the rate correlation of the true
	// (entry, exit) pairs: the raw strength of the throughput
	// fingerprint that survives the padding.
	MeanCorrTrue float64
	// DegreeOfAnonymity averages the normalized entropy of the per-flow
	// match posterior (softmax over each exit flow's score column):
	// 1 means the adversary's belief is uniform over all entry flows,
	// 0 means the flow is identified.
	DegreeOfAnonymity float64
}

// CorrelateFlows runs the attack over flows flows: observe each one (in
// parallel, flows as the unit of parallelism), reduce each side to its
// throughput fingerprint and the exit's class posteriors, score every
// (entry, exit) pair, and match greedily. observe(worker, f) returns
// flow f's observation; its slices are reduced before observe runs
// again on the same worker, so it may reuse per-worker buffers. Exit
// flow f's true entry flow is flow f; the scores never read that
// identity, only the observations.
func CorrelateFlows(flows int, cfg CorrConfig, observe func(worker, f int) (FlowObs, error)) (*Correlation, error) {
	cfg = cfg.withDefaults()
	if observe == nil {
		return nil, errors.New("adversary: nil flow observer")
	}
	if flows < 2 {
		return nil, errors.New("adversary: need at least two flows")
	}
	if !(cfg.Duration > 0) {
		return nil, errors.New("adversary: observation duration must be positive")
	}
	workers := min(par.Workers(cfg.Workers), flows)
	exitClasses, err := NewExitClasses(cfg.Classifiers, cfg.Extractors, cfg.FeatureWindow, workers)
	if err != nil {
		return nil, err
	}
	// Floor with an epsilon so a float-noisy integral ratio (60*0.7/1 =
	// 41.99999...) keeps its last window instead of silently dropping the
	// tail of both fingerprints.
	bins := int(cfg.Duration/cfg.RateWindow + 1e-9)
	if bins < 2 {
		return nil, errors.New("adversary: need at least two rate windows over the duration")
	}

	// Flow f's fingerprints are rows f of the entry and exit slabs.
	entry := make([]float64, flows*bins)
	exit := make([]float64, flows*bins)
	row := func(slab []float64, f int) []float64 { return slab[f*bins : (f+1)*bins] }
	classes := make([]int, flows)
	posts := make([][]float64, flows) // exit class log posteriors
	err = par.MapWorker(flows, workers, func(worker, f int) error {
		o, err := observe(worker, f)
		if err == nil {
			_, err = RateVector(o.Entry, 0, cfg.RateWindow, row(entry, f))
		}
		if err == nil {
			_, err = RateVector(o.Exit, 0, cfg.RateWindow, row(exit, f))
		}
		if err == nil {
			posts[f], err = exitClasses.LogPosts(worker, o.Exit)
		}
		if err != nil {
			return fmt.Errorf("adversary: flow %d: %w", f, err)
		}
		classes[f] = o.Class
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Score every (entry, exit) pair: rate correlation plus the exit
	// flow's posterior for the entry flow's class.
	score := make([]float64, flows*flows)
	corrTrue := 0.0
	for f := 0; f < flows; f++ {
		for u := 0; u < flows; u++ {
			corr, err := Pearson(row(entry, u), row(exit, f))
			if err != nil {
				return nil, err
			}
			v := cfg.CorrWeight * corr
			if posts[f] != nil {
				v += posts[f][classes[u]]
			}
			score[u*flows+f] = v
			if u == f {
				corrTrue += corr
			}
		}
	}
	sum, err := SummarizeMatch(score, flows, posts, classes)
	if err != nil {
		return nil, err
	}
	return &Correlation{
		Flows: flows, Accuracy: sum.Accuracy, ClassAccuracy: sum.ClassAccuracy, MeanRank: sum.MeanRank,
		MeanCorrTrue:      corrTrue / float64(flows),
		DegreeOfAnonymity: MeanAnonymity(score, flows),
	}, nil
}
