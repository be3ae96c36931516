package cascade

import (
	"errors"
	"fmt"

	"linkpad/internal/adversary"
	"linkpad/internal/bayes"
	"linkpad/internal/par"
)

// End-to-end correlation (correlate.go): the adversary observes every
// route's entry and exit and must match each unlabeled exit flow back to
// its entry flow. Two signals are combined, as in the population
// flow-correlation attack:
//
//   - the throughput fingerprint: windowed packet-count vectors of the
//     entry and exit sides, matched by Pearson correlation
//     (adversary.RateVector / adversary.Pearson). It identifies the
//     individual flow whenever payload rate fluctuations survive the
//     whole route;
//   - the paper's PIAT class features at the exit
//     (adversary.MultiPipeline reduced to bayes class posteriors): even
//     when the route flattens the throughput fingerprint, residual
//     timing structure may still identify the flow's rate class,
//     shrinking the anonymity set to the class population. The entry
//     side is unpadded, so the adversary reads each flow's true class
//     off the ingress stream directly.
//
// Scores combine additively in log space, flows are assigned greedily
// (adversary.GreedyMatch), and the per-flow match posterior — softmax
// over a flow's score column — yields the degree of anonymity: the
// normalized entropy of the adversary's belief about which entry flow an
// exit flow belongs to (1 = uniform over all flows, 0 = identified).

// Config parameterizes the end-to-end correlation attack.
type Config struct {
	// Duration is the observation time in stream seconds (required).
	Duration float64
	// RateWindow is the throughput-fingerprint bin width in seconds
	// (0 = 1 s). The fingerprint has floor(Duration/RateWindow) bins.
	RateWindow float64
	// CorrWeight scales the rate-correlation term against the class
	// log-posterior term (0 = 8, matching the population attack).
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
	// Workers bounds the per-flow simulation parallelism; results are
	// identical at any width. Zero means all CPUs.
	Workers int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
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

// Result reports one end-to-end correlation attack.
type Result struct {
	// Flows is the number of end-to-end flows (= exit flows to match).
	Flows int
	// Hops is the route length in padded hops.
	Hops int
	// Accuracy is the fraction of exit flows assigned to their true
	// entry flow by the greedy matching.
	Accuracy float64
	// ClassAccuracy is the fraction of flows whose rate class the exit
	// PIAT features identified (0 when no classifiers were supplied).
	ClassAccuracy float64
	// MeanRank averages the rank (1 = best) of the true entry flow in
	// each exit flow's score ordering.
	MeanRank float64
	// MeanCorrTrue averages the rate correlation of the true
	// (entry, exit) pairs: the raw strength of the throughput
	// fingerprint that survives the route.
	MeanCorrTrue float64
	// DegreeOfAnonymity averages the normalized entropy of the per-flow
	// match posterior (softmax over each exit flow's score column):
	// 1 means the adversary's belief is uniform over all entry flows,
	// 0 means the flow is identified.
	DegreeOfAnonymity float64
	// HopPPS is each hop's mean emitted packet rate per flow — the
	// per-link bandwidth of the route, entry hop first.
	HopPPS []float64
	// HopDummyFrac is each hop's dummy fraction (dummies/emitted).
	HopDummyFrac []float64
	// RoutePPS sums HopPPS: the route's total bandwidth cost per flow.
	// For unpadded (zero-hop) routes it is the exit stream's rate.
	RoutePPS float64
	// DummyFrac is the whole route's dummy fraction: dummies over
	// emitted packets, summed across hops and flows.
	DummyFrac float64
}

// routeObs is the reduced observation of one route.
type routeObs struct {
	ingRate   []float64
	egRate    []float64
	exitCount int
}

// Correlate runs the attack end to end: simulate every route (in
// parallel, flows as the unit of parallelism), reduce each side to its
// throughput fingerprint and exit class posteriors, score every
// (entry, exit) pair, match greedily, and account the per-hop overhead.
// Exit flow f's true entry flow is flow f; the adversary's scores never
// read that identity, only the observations.
func Correlate(e *Engine, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if e == nil {
		return nil, errors.New("cascade: nil engine")
	}
	if !(cfg.Duration > 0) {
		return nil, errors.New("cascade: observation duration must be positive")
	}
	flows := e.Flows()
	workers := min(par.Workers(cfg.Workers), flows)
	exitClasses, err := adversary.NewExitClasses(cfg.Classifiers, cfg.Extractors, cfg.FeatureWindow, workers)
	if err != nil {
		return nil, fmt.Errorf("cascade: %w", err)
	}
	// Floor with an epsilon so a float-noisy integral ratio keeps its
	// last window instead of silently dropping the tail of both
	// fingerprints (same guard as the population attack).
	bins := int(cfg.Duration/cfg.RateWindow + 1e-9)
	if bins < 2 {
		return nil, errors.New("cascade: need at least two rate windows over the duration")
	}

	obs := make([]routeObs, flows)
	classes := make([]int, flows)
	posts := make([][]float64, flows) // exit class log posteriors
	hopStats := make([][]HopStats, flows)
	exits := make([][]float64, workers) // reusable per-worker exit-time slabs
	err = par.MapWorker(flows, workers, func(worker, f int) error {
		route, err := e.Route(f)
		if err != nil {
			return fmt.Errorf("cascade: route %d: %w", f, err)
		}
		if route.Entry == nil {
			return fmt.Errorf("cascade: route %d has no entry recorder", f)
		}
		// Pull the exit stream through the whole route into the worker's
		// reusable slab; the entry recorder fills as a side effect.
		buf := exits[worker][:0]
		for {
			t := route.Exit.Next()
			if t > cfg.Duration {
				break
			}
			buf = append(buf, t)
		}
		exits[worker] = buf
		// The route's observation is complete and this worker owns its
		// telemetry shard: publish the chain's counters (nil-safe).
		route.Probe.Flush()
		o := &obs[f]
		classes[f] = route.Class
		o.exitCount = len(buf)
		o.ingRate = make([]float64, bins)
		o.egRate = make([]float64, bins)
		if _, err := adversary.RateVector(route.Entry.Times(), 0, cfg.RateWindow, o.ingRate); err != nil {
			return err
		}
		if _, err := adversary.RateVector(buf, 0, cfg.RateWindow, o.egRate); err != nil {
			return err
		}
		hopStats[f] = make([]HopStats, len(route.Hops))
		for h, probe := range route.Hops {
			hopStats[f][h] = probe()
		}
		if posts[f], err = exitClasses.LogPosts(worker, buf); err != nil {
			return fmt.Errorf("cascade: route %d: %w", f, err)
		}
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
			corr, err := adversary.Pearson(obs[u].ingRate, obs[f].egRate)
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
	sum, err := adversary.SummarizeMatch(score, flows, posts, classes)
	if err != nil {
		return nil, err
	}
	// Matched-overhead accounting over every flow's observed duration.
	span := float64(flows) * cfg.Duration
	ov, err := ReduceHops(hopStats, e.Hops(), span)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Flows: flows, Hops: e.Hops(),
		Accuracy: sum.Accuracy, ClassAccuracy: sum.ClassAccuracy, MeanRank: sum.MeanRank,
		MeanCorrTrue:      corrTrue / float64(flows),
		DegreeOfAnonymity: adversary.MeanAnonymity(score, flows),
		HopPPS:            ov.HopPPS, HopDummyFrac: ov.HopDummyFrac, RoutePPS: ov.RoutePPS, DummyFrac: ov.DummyFrac,
	}
	if e.Hops() == 0 {
		// An unpadded route's wire rate is the exit stream itself.
		var exitAll float64
		for f := range obs {
			exitAll += float64(obs[f].exitCount)
		}
		res.RoutePPS = exitAll / span
	}
	return res, nil
}

// HopOverhead is the matched-overhead accounting of a route's padded
// hops.
type HopOverhead struct {
	// HopPPS is each hop's mean emitted packet rate per flow, entry hop
	// first; HopDummyFrac is each hop's dummy fraction.
	HopPPS       []float64
	HopDummyFrac []float64
	// RoutePPS sums HopPPS; DummyFrac is dummies over emitted packets,
	// summed across hops and flows.
	RoutePPS  float64
	DummyFrac float64
}

// ReduceHops accounts hop overhead in flow order. perFlow[f] holds flow
// f's HopStats, entry hop first, and must have length hops; span is the
// flows' summed observed time that each hop's emitted count divides
// into a rate. With zero hops the accounting is empty.
func ReduceHops(perFlow [][]HopStats, hops int, span float64) (HopOverhead, error) {
	var ov HopOverhead
	for f, hs := range perFlow {
		if len(hs) != hops {
			return ov, fmt.Errorf("cascade: flow %d reports %d hops, engine has %d", f, len(hs), hops)
		}
	}
	if hops == 0 {
		return ov, nil
	}
	ov.HopPPS = make([]float64, hops)
	ov.HopDummyFrac = make([]float64, hops)
	var emittedAll, dummiesAll float64
	for h := 0; h < hops; h++ {
		var emitted, dummies float64
		for _, hs := range perFlow {
			emitted += float64(hs[h].Emitted)
			dummies += float64(hs[h].Dummies)
		}
		ov.HopPPS[h] = emitted / span
		if emitted > 0 {
			ov.HopDummyFrac[h] = dummies / emitted
		}
		ov.RoutePPS += ov.HopPPS[h]
		emittedAll += emitted
		dummiesAll += dummies
	}
	if emittedAll > 0 {
		ov.DummyFrac = dummiesAll / emittedAll
	}
	return ov, nil
}
