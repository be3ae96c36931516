package cascade

import (
	"context"
	"errors"
	"fmt"

	"linkpad/internal/adversary"
	"linkpad/internal/netem"
	"linkpad/internal/par"
)

// End-to-end correlation (correlate.go): the adversary observes every
// route's entry and exit and must match each unlabeled exit flow back to
// its entry flow — adversary.CorrelateFlows, the attack populations
// face too, run over the engine's routes. Correlate adds what only a
// route has: the pull that drives each flow through every hop, and the
// per-hop matched-overhead accounting.

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

// Correlate runs adversary.CorrelateFlows over the engine's routes and
// accounts the per-hop overhead. Each route's exit stream is pulled
// through the whole route over (0, cfg.Duration] into a per-worker slab
// (netem.Collect), which counts the entry arrivals into the flow's entry
// row as a side effect; once the route's observation is complete its hop
// counters are read. Exit flow f's true entry flow is flow f. ctx stops
// the attack between flows, as in CorrelateFlows.
func Correlate(ctx context.Context, e *Engine, cfg adversary.CorrConfig) (*Result, error) {
	if e == nil {
		return nil, errors.New("cascade: nil engine")
	}
	flows := e.Flows()
	hopStats := make([][]HopStats, flows)
	exitCounts := make([]int, flows)
	exits := make([][]float64, par.Workers(cfg.Workers)) // reusable per-worker exit-time slabs
	corr, err := adversary.CorrelateFlows(ctx, flows, cfg, func(worker, f int, entry []float64) (adversary.FlowObs, error) {
		route, err := e.Route(f)
		if err != nil {
			return adversary.FlowObs{}, err
		}
		if route.Entry == nil {
			return adversary.FlowObs{}, errors.New("route has no entry recorder")
		}
		route.Entry.Row = entry
		buf := netem.Collect(exits[worker][:0], route.Exit, 0, cfg.Duration)
		exits[worker] = buf
		// The route's observation is complete and this worker owns its
		// telemetry shard: publish the chain's counters (nil-safe).
		route.Probe.Flush()
		exitCounts[f] = len(buf)
		hopStats[f] = make([]HopStats, len(route.Hops))
		for h, probe := range route.Hops {
			hopStats[f][h] = probe()
		}
		return adversary.FlowObs{Class: route.Class, Exit: buf}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("cascade: %w", err)
	}
	// Matched-overhead accounting over every flow's observed duration.
	span := float64(flows) * cfg.Duration
	ov, err := ReduceHops(hopStats, e.Hops(), span)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Flows: flows, Hops: e.Hops(),
		Accuracy: corr.Accuracy, ClassAccuracy: corr.ClassAccuracy, MeanRank: corr.MeanRank,
		MeanCorrTrue: corr.MeanCorrTrue, DegreeOfAnonymity: corr.DegreeOfAnonymity,
		HopPPS: ov.HopPPS, HopDummyFrac: ov.HopDummyFrac, RoutePPS: ov.RoutePPS, DummyFrac: ov.DummyFrac,
	}
	if e.Hops() == 0 {
		// An unpadded route's wire rate is the exit stream itself.
		var exitAll float64
		for _, n := range exitCounts {
			exitAll += float64(n)
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
