package experiment

import (
	"linkpad/internal/analytic"
	"linkpad/internal/core"
)

func init() {
	registerCells("ext-cascade", extCascadeCells)
	registerCells("ablation-hop-policies", ablationHopPolicyCells)
}

// cascadeDuration resolves the per-flow observation budget in stream
// seconds, floored so every flow still yields the feature window and a
// meaningful throughput fingerprint at -short scales.
func cascadeDuration(o Options) float64 {
	d := 60 * o.Scale
	if d < 30 {
		d = 30
	}
	return d
}

// secondOrderFeatures are the paper's two strongest statistics: the
// exit-side class features of the end-to-end attacks and the pair the
// replica ablations compare.
var secondOrderFeatures = []analytic.Feature{analytic.FeatureVariance, analytic.FeatureEntropy}

// The non-CIT hops of the two-hop route ablations.
var (
	hopVIT30 = core.CascadeHop{Policy: core.CascadeVIT, SigmaT: 30e-6}
	hopMix8  = core.CascadeHop{Policy: core.CascadeMix}
)

// twoHopRoute is one route of the two-hop ablations; a zero CascadeHop
// is a CIT hop.
type twoHopRoute struct {
	code float64
	name string
	hops []core.CascadeHop
}

// extCascadeHops is the ext-cascade sweep axis: the route length K.
var extCascadeHops = []int{0, 1, 2, 3}

// extCascadeCells measures the end-to-end correlation attack against
// routes of increasing length: 16 flows cross K re-padding CIT hops
// (K = 0 is the unpadded anchor) and the adversary taps every route's
// entry and exit, matching exit flows to entry flows by
// throughput-fingerprint correlation plus exit PIAT class posteriors.
// One timer hop erases the throughput fingerprint and leaves only the
// class leak (the anonymity set collapses to the rate class); the
// second hop erases the class leak too — its blocking channel sees the
// upstream's constant 1/τ rate, not the payload rate — and the degree of
// anonymity climbs toward 1. The overhead columns price this in
// bandwidth: every hop adds a full 1/τ padded link, while dummies
// injected at the entry propagate (only the entry hop manufactures
// dummies; inner hops re-time and forward).
var extCascadeCells = &cellExperiment{
	title: "End-to-end correlation vs hop count: 16 flows across K re-padding CIT hops",
	columns: []string{"hops", "flow_acc", "class_acc", "mean_rank",
		"anonymity", "mean_corr_true", "route_pps", "dummy_frac"},
	ncells: func(Options) int { return len(extCascadeHops) },
	run: func(o Options, cell int) ([]float64, error) {
		sys, err := core.NewSystem(labConfig(o))
		if err != nil {
			return nil, err
		}
		k := extCascadeHops[cell]
		res, err := runCascadeCorrelation(o, sys, core.CascadeSpec{
			Hops:  make([]core.CascadeHop, k),
			Flows: 16,
		}, core.CascadeCorrConfig{
			Duration:     cascadeDuration(o),
			Features:     secondOrderFeatures,
			TrainWindows: o.windows(120),
		})
		if err != nil {
			return nil, err
		}
		return []float64{float64(k), res.Accuracy, res.ClassAccuracy,
			res.MeanRank, res.DegreeOfAnonymity, res.MeanCorrTrue,
			res.RoutePPS, res.DummyFrac}, nil
	},
	notes: func(o Options, t *Table) {
		t.Notef("16 flows (8 per class), %.0f s per flow, rate window 1 s; hops=0 is the unpadded anchor", cascadeDuration(o))
		t.Notef("exit class features variance+entropy at window 200, %d training windows/class on phantom routes", o.windows(120))
		t.Notef("matched overhead: every hop re-pads at 1/tau = 100 pps, so route_pps = 100·K per flow; dummy_frac counts dummies over all emitted packets (inner hops forward upstream dummies instead of minting their own)")
		t.Notef("anonymity: normalized entropy of the adversary's per-flow match posterior (1 = uniform over all 16 entry flows)")
	},
}

// hopPolicyRoutes is the ablation-hop-policies sweep axis.
var hopPolicyRoutes = []twoHopRoute{
	{0, "CIT+CIT", []core.CascadeHop{{}, {}}},
	{1, "VIT+VIT", []core.CascadeHop{hopVIT30, hopVIT30}},
	{2, "CIT+VIT", []core.CascadeHop{{}, hopVIT30}},
	{3, "CIT+MIX8", []core.CascadeHop{{}, hopMix8}},
	{4, "MIX8+CIT", []core.CascadeHop{hopMix8, {}}},
}

// ablationHopPolicyCells compares homogeneous against mixed per-hop
// policies on two-hop routes at equal bandwidth: every route whose entry
// hop is a timer emits 1/τ = 100 pps on both links (a mix hop forwards
// whatever it receives, so a mix behind a timer also carries 100 pps).
// Hop order is the finding: a batching mix *in front of* a timer hop
// re-introduces the class leak a timer entry hop would have flattened —
// the mix's K-packet bursts arrive at the downstream timer in clumps
// whose rate is the payload rate, and the compound blocking delay turns
// that into exit PIAT variance the paper's features read at 100% — while
// the same mix behind a timer hop sees a constant-rate stream and leaks
// nothing. The mix-entry route is also cheaper (it pads nothing), which
// is exactly the bandwidth-for-anonymity trade the cascade prices.
var ablationHopPolicyCells = &cellExperiment{
	title: "Two-hop routes: homogeneous vs mixed per-hop policies at equal bandwidth",
	columns: []string{"route", "flow_acc", "class_acc", "anonymity",
		"route_pps", "dummy_frac"},
	ncells: func(Options) int { return len(hopPolicyRoutes) },
	run: func(o Options, cell int) ([]float64, error) {
		sys, err := core.NewSystem(labConfig(o))
		if err != nil {
			return nil, err
		}
		r := hopPolicyRoutes[cell]
		res, err := runCascadeCorrelation(o, sys, core.CascadeSpec{
			Hops:  r.hops,
			Flows: 16,
		}, core.CascadeCorrConfig{
			Duration:     cascadeDuration(o),
			Features:     secondOrderFeatures,
			TrainWindows: o.windows(120),
		})
		if err != nil {
			return nil, err
		}
		return []float64{r.code, res.Accuracy, res.ClassAccuracy,
			res.DegreeOfAnonymity, res.RoutePPS, res.DummyFrac}, nil
	},
	notes: func(o Options, t *Table) {
		for _, r := range hopPolicyRoutes {
			t.Notef("route %d = %s", int(r.code), r.name)
		}
		t.Notef("16 flows, %.0f s per flow; exit class features variance+entropy at window 200, %d training windows/class", cascadeDuration(o), o.windows(120))
		t.Notef("equal bandwidth: timer-entry routes carry 100 pps on both links; the MIX8 entry route pads nothing (route_pps shows the discount) and leaks the class for it")
	},
}
