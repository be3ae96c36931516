package adversary

import (
	"context"
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
//     correlation (CountRate, Center, CenteredCorr). It identifies the
//     individual flow whenever payload rate fluctuations survive the
//     padding;
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

// FlowObs is one flow as the adversary observes it at the exit; the
// entry side is counted straight into the flow's fingerprint row.
type FlowObs struct {
	// Class is the flow's true rate class, read off the unpadded entry.
	Class int
	// Exit holds the ascending exit times in absolute stream seconds.
	Exit []float64
}

// RateWindow is the throughput-fingerprint bin width in seconds: a
// fingerprint over Duration seconds has floor(Duration/RateWindow) bins.
const RateWindow = 1.0

// corrWeight scales the rate-correlation term against the class
// log-posterior term: correlation spans [-1, 1], posteriors span
// [-PostFloor, 0] per classifier.
const corrWeight = 8

// CorrConfig parameterizes the flow-correlation attack.
type CorrConfig struct {
	// Duration is the observation time in stream seconds (required).
	Duration float64
	// FeatureWindow is the PIAT count reduced to one feature value per
	// flow (at least 2); it must match the window the classifiers were
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
// (entry, exit) pair, and match greedily. observe(worker, f, entry)
// returns flow f's observation, and its entry tap counts every arrival
// into the zeroed fingerprint row entry with CountRate; the exit slice
// is reduced before observe runs again on the same worker, so it may
// reuse per-worker buffers. Exit flow f's true entry flow is flow f; the
// scores never read that identity, only the observations. ctx is
// checked before each flow is observed; once it is done, the attack
// fails with its cause.
func CorrelateFlows(ctx context.Context, flows int, cfg CorrConfig, observe func(worker, f int, entry []float64) (FlowObs, error)) (*Correlation, error) {
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
	bins := int(cfg.Duration/RateWindow + 1e-9)
	if bins < 2 {
		return nil, errors.New("adversary: need at least two rate windows over the duration")
	}

	// Flow f's fingerprints are rows f of the entry and exit slabs,
	// centered in place; ssEntry[f] and ssExit[f] are their sums of
	// squares.
	entry := make([]float64, flows*bins)
	exit := make([]float64, flows*bins)
	row := func(slab []float64, f int) []float64 { return slab[f*bins : (f+1)*bins] }
	ssEntry := make([]float64, flows)
	ssExit := make([]float64, flows)
	classes := make([]int, flows)
	posts := make([][]float64, flows) // exit class log posteriors
	err = par.MapWorker(flows, workers, func(worker, f int) error {
		if err := context.Cause(ctx); err != nil {
			return err
		}
		o, err := observe(worker, f, row(entry, f))
		if err == nil {
			posts[f], err = exitClasses.LogPosts(worker, o.Exit)
		}
		if err != nil {
			return fmt.Errorf("adversary: flow %d: %w", f, err)
		}
		for _, t := range o.Exit {
			CountRate(row(exit, f), t)
		}
		ssEntry[f] = Center(row(entry, f), row(entry, f))
		ssExit[f] = Center(row(exit, f), row(exit, f))
		classes[f] = o.Class
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Score every (entry, exit) pair, in parallel over exit flows (flow f
	// writes only column f): rate correlation plus the exit flow's
	// posterior for the entry flow's class.
	score := make([]float64, flows*flows)
	corrDiag := make([]float64, flows)
	_ = par.Map(flows, workers, func(f int) error { // scoring cannot fail
		for u := 0; u < flows; u++ {
			corr := CenteredCorr(row(entry, u), row(exit, f), ssEntry[u], ssExit[f])
			v := corrWeight * corr
			if posts[f] != nil {
				v += posts[f][classes[u]]
			}
			score[u*flows+f] = v
			if u == f {
				corrDiag[f] = corr
			}
		}
		return nil
	})
	corrTrue := 0.0
	for _, c := range corrDiag {
		corrTrue += c
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
