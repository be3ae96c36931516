package experiment

import (
	"linkpad/internal/active"
	"linkpad/internal/core"
)

func init() {
	registerCells("ext-active", extActiveCells)
	registerCells("ablation-watermark-defenses", ablationWatermarkDefenseCells)
}

// activeDuration resolves the matched-filter observation budget in
// stream seconds, floored so the filter keeps enough whole chip slots
// (90 at the 0.5 s default period) for a meaningful z calibration at
// -short scales.
func activeDuration(o Options) float64 {
	d := 60 * o.Scale
	if d < 45 {
		d = 45
	}
	return d
}

// activePolicy is one padding policy of the ext-active sweep: a system
// mutation plus the watermark protocol that observes it.
type activePolicy struct {
	code float64
	name string
	mut  func(*core.Config)
	spec core.ActiveSpec
}

// extActivePolicies and extActiveAmps span the ext-active sweep; cell i
// is (policy i/len(amps), in-slot chaff rate i%len(amps)).
var (
	extActivePolicies = []activePolicy{
		{0, "NONE", func(*core.Config) {},
			core.ActiveSpec{Protocol: core.ActiveReplica, Raw: true}},
		{1, "CIT", func(*core.Config) {},
			core.ActiveSpec{Protocol: core.ActiveReplica}},
		{2, "VIT-5us", func(c *core.Config) { c.SigmaT = 5e-6 },
			core.ActiveSpec{Protocol: core.ActiveReplica}},
		{3, "MIX-64", func(c *core.Config) { c.Mix = &core.MixSpec{K: 64} },
			core.ActiveSpec{Protocol: core.ActivePopulation, CoverToPPS: 100}},
		{4, "CASC-2xCIT", func(*core.Config) {},
			core.ActiveSpec{Protocol: core.ActiveCascade,
				Hops: []core.CascadeHop{{}, {}}}},
	}
	extActiveAmps = []float64{10, 20, 40}
)

// extActiveCells measures the active watermark attack against each
// padding policy at matched overhead: the adversary injects keyed chaff
// probes (a ±1 chip schedule gating an extra Poisson stream) into every
// flow's payload before the countermeasure and runs the matched-filter
// detector at the exit tap, sweeping the in-slot chaff rate. The
// policies tier cleanly: the unpadded link forwards the rate pattern
// itself (count channel); a CIT timer flattens the wire rate but leaks
// through the compound blocking jitter — marked slots carry measurably
// noisier PIATs — and a little VIT σ_T drowns exactly that channel; a
// deep batching mix at the same bandwidth (cover up to 1/τ) blurs the
// chaff behind batch-release noise; and a second re-padding hop
// destroys the watermark outright, because the inner hop's timer only
// ever sees the entry hop's constant 1/τ. Detection falls monotonically
// from unpadded through CIT/VIT and the mix to the two-hop cascade at
// every amplitude.
var extActiveCells = &cellExperiment{
	title: "Active chaff watermark vs padding policy at matched overhead: detection rate by in-slot chaff rate",
	columns: []string{"policy", "amp_pps", "det_rate", "mean_z", "match_acc",
		"anonymity", "class_acc", "injected_pps", "route_pps"},
	ncells: func(Options) int { return len(extActivePolicies) * len(extActiveAmps) },
	run: func(o Options, cell int) ([]float64, error) {
		p := extActivePolicies[cell/len(extActiveAmps)]
		amp := extActiveAmps[cell%len(extActiveAmps)]
		cfg := labConfig(o)
		p.mut(&cfg)
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		spec := p.spec
		spec.Flows = 16
		spec.Mode = active.ModeChaff
		spec.Amplitude = amp
		res, err := runActiveDetection(o, sys, spec, core.ActiveDetectConfig{
			Duration:     activeDuration(o),
			Features:     secondOrderFeatures,
			TrainWindows: o.windows(120),
		})
		if err != nil {
			return nil, err
		}
		return []float64{p.code, amp, res.DetectionRate, res.MeanZ,
			res.MatchAccuracy, res.DegreeOfAnonymity, res.ClassAccuracy,
			res.InjectedPPS, res.RoutePPS}, nil
	},
	notes: func(o Options, t *Table) {
		for _, p := range extActivePolicies {
			t.Notef("policy %d = %s", int(p.code), p.name)
		}
		t.Notef("16 flows, %.0f s observed per flow, 32-chip keys at 0.5 s slots, 16 decoy keys, detection threshold z = 3", activeDuration(o))
		t.Notef("amp_pps is the chaff rate inside marked slots; injected_pps is the attacker's long-run cost (amp x duty cycle)")
		t.Notef("matched overhead: CIT/VIT emit 1/tau = 100 pps; MIX-64 users add cover up to 100 pps (cover is minted past the attacker, so it is never watermarked); NONE is the unpadded anchor; CASC-2xCIT pays double")
		t.Notef("exit class features variance+entropy at window 200, %d training windows/class on phantom (unwatermarked) flows; the Raw anchor trains no classifier, so its class_acc reads 0", o.windows(120))
		t.Notef("anonymity: normalized entropy of each exit flow's key-match posterior (1 = the watermark tells the adversary nothing)")
	},
}

// watermarkDefenseRoutes and watermarkModes span the
// ablation-watermark-defenses sweep; cell i is (route i/len(modes),
// mode i%len(modes)).
var (
	watermarkDefenseRoutes = []twoHopRoute{
		{0, "CIT", []core.CascadeHop{{}}},
		{1, "CIT+CIT", []core.CascadeHop{{}, {}}},
		{2, "VIT+VIT", []core.CascadeHop{hopVIT30, hopVIT30}},
		{3, "CIT+MIX8", []core.CascadeHop{{}, hopMix8}},
		{4, "MIX8+CIT", []core.CascadeHop{hopMix8, {}}},
	}
	watermarkModes = []struct {
		code float64
		mode active.Mode
		amp  float64
	}{
		{0, active.ModeChaff, 20},  // 20 pps inside marked slots
		{1, active.ModeDelay, 0.1}, // 100 ms imposed on marked payload
	}
)

// ablationWatermarkDefenseCells asks which hop policy and hop *order*
// destroy the watermark on two-hop routes at equal bandwidth, for both
// injection mechanisms. A single CIT hop leaks keyed chaff through its
// blocking channel; adding any re-padding second hop kills it — the
// inner hop only ever sees the entry hop's constant rate — except in
// one order: a batching mix *in front of* the timer forwards the chaff
// rate pattern untouched, and the downstream timer's blocking channel
// turns it back into marked-slot PIAT noise, exactly the route that
// also re-introduces the passive class leak (ablation-hop-policies).
// Delay-jitter watermarks are weaker: the first re-timing hop already
// erases the imprinted timing, whatever the policy.
var ablationWatermarkDefenseCells = &cellExperiment{
	title: "Two-hop routes vs the active watermark: which hop policy and order destroy it at equal bandwidth",
	columns: []string{"route", "mode", "det_rate", "mean_z", "match_acc",
		"anonymity", "class_acc", "injected_pps", "added_delay_ms",
		"route_pps", "dummy_frac"},
	ncells: func(Options) int { return len(watermarkDefenseRoutes) * len(watermarkModes) },
	run: func(o Options, cell int) ([]float64, error) {
		r := watermarkDefenseRoutes[cell/len(watermarkModes)]
		m := watermarkModes[cell%len(watermarkModes)]
		sys, err := core.NewSystem(labConfig(o))
		if err != nil {
			return nil, err
		}
		res, err := runActiveDetection(o, sys, core.ActiveSpec{
			Protocol:  core.ActiveCascade,
			Hops:      r.hops,
			Flows:     16,
			Mode:      m.mode,
			Amplitude: m.amp,
		}, core.ActiveDetectConfig{
			Duration:     activeDuration(o),
			Features:     secondOrderFeatures,
			TrainWindows: o.windows(120),
		})
		if err != nil {
			return nil, err
		}
		return []float64{r.code, m.code, res.DetectionRate, res.MeanZ,
			res.MatchAccuracy, res.DegreeOfAnonymity, res.ClassAccuracy,
			res.InjectedPPS, res.MeanAddedDelay * 1e3, res.RoutePPS,
			res.DummyFrac}, nil
	},
	notes: func(o Options, t *Table) {
		for _, r := range watermarkDefenseRoutes {
			t.Notef("route %d = %s", int(r.code), r.name)
		}
		t.Notef("mode 0 = chaff probes at 20 pps inside marked slots; mode 1 = delay jitter, 100 ms imposed on marked-slot payload")
		t.Notef("16 flows, %.0f s observed per flow, 32-chip keys at 0.5 s slots; exit class features variance+entropy at window 200, %d training windows/class", activeDuration(o), o.windows(120))
		t.Notef("equal bandwidth: timer-entry routes carry 1/tau = 100 pps on both links; the MIX8 entry route forwards payload+chaff only (route_pps shows the discount) and leaks the watermark for it")
		t.Notef("hop order is the finding: MIX8+CIT forwards the chaff rate pattern into the timer's blocking channel, CIT+MIX8 starves it with a constant rate")
	},
}
