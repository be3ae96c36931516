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
// face too, run over routes (CorrelateRoutes). Every flow attack pulls
// its exits through one Pull, which also keeps what the per-hop
// matched-overhead accounting (ReduceHops) reads.

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
	// HopOverhead prices the route: per-hop emitted rate and dummy
	// fraction, the route's total rate and its dummy fraction.
	HopOverhead
}

// Correlate runs CorrelateRoutes over the engine's routes and accounts
// the per-hop overhead. Exit flow f's true entry flow is flow f. ctx
// stops the attack between flows, as in CorrelateFlows.
func Correlate(ctx context.Context, e *Engine, cfg adversary.CorrConfig) (*Result, error) {
	if e == nil {
		return nil, errors.New("cascade: nil engine")
	}
	corr, observed, err := CorrelateRoutes(ctx, e.Flows(), cfg, e.Route)
	if err != nil {
		return nil, fmt.Errorf("cascade: %w", err)
	}
	ov, err := ReduceHops(observed, e.Hops())
	if err != nil {
		return nil, err
	}
	return &Result{
		Flows: e.Flows(), Hops: e.Hops(),
		Accuracy: corr.Accuracy, ClassAccuracy: corr.ClassAccuracy, MeanRank: corr.MeanRank,
		MeanCorrTrue: corr.MeanCorrTrue, DegreeOfAnonymity: corr.DegreeOfAnonymity,
		HopOverhead: ov,
	}, nil
}

// CorrelateRoutes runs adversary.CorrelateFlows over flows routes, flow
// f's built by route(f), which must carry an entry recorder. Each
// route's exit is pulled over (0, cfg.Duration] (Pull.Exit), which
// counts the entry arrivals of the same window into the flow's entry
// row as a side effect. It returns the correlation and each flow's
// observation, in flow order; errors are not prefixed, so each caller
// names its own package.
func CorrelateRoutes(ctx context.Context, flows int, cfg adversary.CorrConfig, route RouteBuilder) (*adversary.Correlation, []Observed, error) {
	pull := NewPull(flows, cfg.Workers)
	corr, err := adversary.CorrelateFlows(ctx, flows, cfg, func(worker, f int, entry []float64) (adversary.FlowObs, error) {
		r, err := route(f)
		if err != nil {
			return adversary.FlowObs{}, err
		}
		if r.Entry == nil {
			return adversary.FlowObs{}, errors.New("route has no entry recorder")
		}
		r.Entry.Row, r.Entry.End = entry, cfg.Duration
		return adversary.FlowObs{Class: r.Class, Exit: pull.Exit(worker, f, r, 0, cfg.Duration)}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return corr, pull.Flows, nil
}

// Observed is what pulling one flow leaves for the overhead accounting:
// the observed window (Start, End], the exit times counted in it, and
// each hop's counters once the pull is done, entry hop first.
type Observed struct {
	Start, End float64
	Exits      int
	Hops       []HopStats
}

// Pull is the one exit pull of the flow attacks: population flows,
// cascade routes and watermarked flows all reach their exits through
// Exit. It keeps one reusable exit-time slab per worker, so a warmed
// pull allocates nothing per packet, and records each flow's Observed.
type Pull struct {
	slabs [][]float64
	// Flows holds flow f's observation once Exit has pulled it.
	Flows []Observed
}

// NewPull returns a pull over flows flows on up to workers workers
// (0 = all CPUs, as par.Workers resolves it).
func NewPull(flows, workers int) *Pull {
	return &Pull{slabs: make([][]float64, par.Workers(workers)), Flows: make([]Observed, flows)}
}

// Exit pulls flow f's route r on worker's slab: it collects the exit
// times in (from, to] (netem.Collect), flushes the route's telemetry
// shard — the observation is complete and this worker owns it — and
// reads the hop probes. The returned times are valid until the worker's
// next pull.
func (p *Pull) Exit(worker, f int, r *Route, from, to float64) []float64 {
	buf := netem.Collect(p.slabs[worker][:0], r.Exit, from, to)
	p.slabs[worker] = buf
	r.Probe.Flush()
	hops := make([]HopStats, len(r.Hops))
	for h, probe := range r.Hops {
		hops[h] = probe()
	}
	p.Flows[f] = Observed{Start: from, End: to, Exits: len(buf), Hops: hops}
	return buf
}

// HopOverhead is the matched-overhead accounting of a route's padded
// hops.
type HopOverhead struct {
	// HopPPS is each hop's mean emitted packet rate per flow, entry hop
	// first; HopDummyFrac is each hop's dummy fraction.
	HopPPS       []float64
	HopDummyFrac []float64
	// RoutePPS sums HopPPS: the route's total bandwidth cost per flow.
	// For unpadded (zero-hop) flows it is the exit stream's observed
	// rate. DummyFrac is dummies over emitted packets, summed across
	// hops and flows.
	RoutePPS  float64
	DummyFrac float64
}

// ReduceHops accounts hop overhead in flow order; each flow must report
// hops hops. Hop counters cover each flow's whole timeline [0, End], so
// hop rates divide by the summed End times. With zero hops the wire
// rate is the exit stream itself: RoutePPS is the exit count over the
// summed observed windows, since packets before Start were discarded.
func ReduceHops(flows []Observed, hops int) (HopOverhead, error) {
	var ov HopOverhead
	var span, exits, window float64
	for f, o := range flows {
		if len(o.Hops) != hops {
			return ov, fmt.Errorf("cascade: flow %d reports %d hops, engine has %d", f, len(o.Hops), hops)
		}
		span += o.End
		exits += float64(o.Exits)
		window += o.End - o.Start
	}
	if hops == 0 {
		if window > 0 {
			ov.RoutePPS = exits / window
		}
		return ov, nil
	}
	ov.HopPPS = make([]float64, hops)
	ov.HopDummyFrac = make([]float64, hops)
	var emittedAll, dummiesAll float64
	for h := 0; h < hops; h++ {
		var emitted, dummies float64
		for _, o := range flows {
			emitted += float64(o.Hops[h].Emitted)
			dummies += float64(o.Hops[h].Dummies)
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
