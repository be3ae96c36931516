package main

import (
	"fmt"
	"math"

	"linkpad/internal/active"
	"linkpad/internal/analytic"
	"linkpad/internal/core"
	"linkpad/internal/population"
	"linkpad/internal/traffic"
)

// op is one benchmark operation: core.NewSystem(cfg), System.Build(spec),
// then Scenario.Run. sys names the system configuration; the traced run
// replays the packet path once per distinct name.
type op struct {
	name string
	sys  string
	cfg  core.Config
	spec core.Spec
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"link-paper", "sda-league", "population-1e6", "route-watermark"}

// Budgets at scale 1. The self-tests run the same ops at scale 0.01.
// Each workload's pass (one run of every op) takes 3-5 s on two cores, so
// a run measures several passes and reports their median.
const (
	fig4bWindows    = 200 // training and evaluation windows per class
	fig8bWindows    = 120 // per class, per hour
	exactWindows    = 100 // per class, fast and exact router
	leagueRounds    = 240 // SDA league round budget
	populationUsers = 1e6 // population-1e6 users
	populationRnds  = 256 // population-1e6 round budget
	routeFlows      = 64  // cascade and active flows
	routeSeconds    = 960 // stream seconds observed per flow
	routeTrain      = 240 // classifier training windows per class
	leagueBatch     = 48  // ext-sda-arms-race batch
	poolSeedSalt    = 0x9e3779b97f4a7c15
	hourSeedStride  = 1000
	minRouteSeconds = 20 // 32 chips × 0.5 s slots, plus slack
)

// scaled multiplies a budget by scale, keeping at least floor.
func scaled(n, scale float64, floor int) int {
	return max(int(math.Round(n*scale)), floor)
}

// buildOps returns a workload's ops for a seed. scale shrinks every
// budget (windows, rounds, stream seconds, flows, users) for the
// self-tests; the benchmark runs at scale 1.
func buildOps(name string, seed uint64, scale float64) ([]op, error) {
	switch name {
	case "link-paper":
		return linkPaperOps(seed, scale), nil
	case "sda-league":
		return leagueOps(seed, scale, population.MixThreshold, population.MixPool, population.MixTimed), nil
	case "population-1e6":
		return populationOps(seed, scale), nil
	case "route-watermark":
		return routeOps(seed, scale, routeFlows, routeSeconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// labConfig is the paper's §5.1 laboratory system: CIT padding at
// τ = 10 ms, payload at 10 or 40 pps, tap at the gateway output.
func labConfig(seed uint64) core.Config {
	cfg := core.DefaultLabConfig()
	cfg.Seed = seed
	return cfg
}

// linkPaperOps mirrors three paper runners: Fig. 4b (lab CIT, five sample
// sizes), Fig. 8b (the 15-hop diurnal WAN at 12 start hours) and
// validate-exactnet (one 100 Mb/s hop, fast sampler then exact router).
func linkPaperOps(seed uint64, scale float64) []op {
	all := []analytic.Feature{analytic.FeatureMean, analytic.FeatureVariance, analytic.FeatureEntropy}
	var ops []op
	w := scaled(fig4bWindows, scale, 4)
	for _, n := range []int{100, 200, 500, 1000, 2000} {
		ops = append(ops, op{
			name: fmt.Sprintf("fig4b/n=%d", n),
			sys:  "lab",
			cfg:  labConfig(seed),
			spec: core.AttackSetSpec{
				Attack:   core.AttackConfig{WindowSize: n, TrainWindows: w, EvalWindows: w},
				Features: all,
			},
		})
	}
	// Fig. 8b: 15 OC-12 routers at 5-30% diurnal load, one op per start
	// hour; the runner decorrelates hours by seed + 1000·hour.
	w = scaled(fig8bWindows, scale, 4)
	for hour := 0; hour < 24; hour += 2 {
		cfg := labConfig(seed + uint64(hour*hourSeedStride))
		cfg.StartHour = float64(hour)
		cfg.Hops = make([]core.HopSpec, 15)
		for i := range cfg.Hops {
			cfg.Hops[i] = core.HopSpec{
				CapacityBps: 622e6,
				PacketBytes: 1500,
				Util:        traffic.Diurnal{Trough: 0.05, Peak: 0.30, TroughHour: 3},
				PropDelay:   2e-3,
			}
		}
		ops = append(ops, op{
			name: fmt.Sprintf("fig8b/hour=%02d", hour),
			sys:  fmt.Sprintf("wan-hour=%02d", hour),
			cfg:  cfg,
			spec: core.AttackSetSpec{
				Attack:   core.AttackConfig{WindowSize: 1000, TrainWindows: w, EvalWindows: w, SkipEmpiricalR: true},
				Features: all,
			},
		})
	}
	w = scaled(exactWindows, scale, 4)
	for _, exact := range []bool{false, true} {
		cfg := labConfig(seed)
		cfg.Hops = []core.HopSpec{{CapacityBps: 100e6, PacketBytes: 200, Util: traffic.Constant(0.3)}}
		cfg.ExactNetwork = exact
		ops = append(ops, op{
			name: fmt.Sprintf("exactnet/exact=%t", exact),
			sys:  fmt.Sprintf("hop-exact=%t", exact),
			cfg:  cfg,
			spec: core.AttackSetSpec{
				Attack:   core.AttackConfig{WindowSize: 1000, TrainWindows: w, EvalWindows: w, SkipEmpiricalR: true},
				Features: all[1:],
			},
		})
	}
	return ops
}

// leagueOps is the ext-sda-arms-race league over the given mixes:
// estimators × mixes × dummy policies on 24 users and 60 recipients.
func leagueOps(seed uint64, scale float64, mixes ...population.MixKind) []op {
	rounds := scaled(leagueRounds, scale, 50)
	var ops []op
	for _, est := range []population.EstimatorKind{population.EstimatorClassic, population.EstimatorLeastSquares, population.EstimatorML} {
		for _, mix := range mixes {
			for _, dum := range []population.DummyPolicy{population.DummyNone, population.DummyUniform, population.DummyAdaptive} {
				pop := core.PopulationSpec{Users: 24, Recipients: 60, Dummies: dum}
				if dum != population.DummyNone {
					pop.CoverRate = 1
				}
				ms := population.MixSpec{Kind: mix}
				if mix == population.MixPool {
					// An explicit seed, so a replay of the cell draws the
					// same retention stream as the run.
					ms.Seed = seed*poolSeedSalt + 1
				}
				ops = append(ops, op{
					name: fmt.Sprintf("sda/%v/%v/%v", est, mix, dum),
					sys:  "lab",
					cfg:  labConfig(seed),
					spec: core.DisclosureSpec{
						Population: pop,
						Disclosure: population.DisclosureConfig{Batch: leagueBatch, Mix: ms, Estimator: est, MaxRounds: rounds},
					},
				})
			}
		}
	}
	return ops
}

// populationOps is the scale-disclosure geometry: a million users behind
// a threshold mix, {classic, least-squares} × cover {0, 1}.
func populationOps(seed uint64, scale float64) []op {
	users := scaled(populationUsers, scale, 10_000)
	rounds := scaled(populationRnds, scale, 32)
	var ops []op
	for _, est := range []population.EstimatorKind{population.EstimatorClassic, population.EstimatorLeastSquares} {
		for _, cover := range []float64{0, 1} {
			ops = append(ops, op{
				name: fmt.Sprintf("population/%v/cover=%g", est, cover),
				sys:  "lab",
				cfg:  labConfig(seed),
				spec: core.DisclosureSpec{
					Population: core.PopulationSpec{Users: users, Recipients: 10_000, CoverRate: cover},
					Disclosure: population.DisclosureConfig{Batch: 1024, Estimator: est, MaxRounds: rounds, CheckEvery: 16},
				},
			})
		}
	}
	return ops
}

// routeOps is ext-cascade (K = 0..3 CIT hops) plus ext-active's policies
// under 20 pps chaff, all with the same flows and observation time.
func routeOps(seed uint64, scale float64, flows int, seconds float64) []op {
	feats := []analytic.Feature{analytic.FeatureVariance, analytic.FeatureEntropy}
	flows = scaled(float64(flows), scale, 4)
	dur := float64(scaled(seconds, scale, minRouteSeconds))
	train := scaled(routeTrain, scale, 8)
	var ops []op
	for k := 0; k <= 3; k++ {
		ops = append(ops, op{
			name: fmt.Sprintf("cascade/hops=%d", k),
			sys:  "lab",
			cfg:  labConfig(seed),
			spec: core.CascadeCorrelationSpec{
				Cascade: core.CascadeSpec{Hops: make([]core.CascadeHop, k), Flows: flows},
				Corr:    core.CascadeCorrConfig{Duration: dur, Features: feats, TrainWindows: train},
			},
		})
	}
	policies := []struct {
		name string
		mut  func(*core.Config)
		spec core.ActiveSpec
	}{
		{"NONE", func(*core.Config) {}, core.ActiveSpec{Protocol: core.ActiveReplica, Raw: true}},
		{"CIT", func(*core.Config) {}, core.ActiveSpec{Protocol: core.ActiveReplica}},
		{"VIT-5us", func(c *core.Config) { c.SigmaT = 5e-6 }, core.ActiveSpec{Protocol: core.ActiveReplica}},
		{"MIX-64", func(c *core.Config) { c.Mix = &core.MixSpec{K: 64} }, core.ActiveSpec{Protocol: core.ActivePopulation, CoverToPPS: 100}},
		{"CASC-2xCIT", func(*core.Config) {}, core.ActiveSpec{Protocol: core.ActiveCascade, Hops: []core.CascadeHop{{}, {}}}},
	}
	for _, p := range policies {
		cfg := labConfig(seed)
		p.mut(&cfg)
		spec := p.spec
		spec.Flows = flows
		spec.Mode = active.ModeChaff
		spec.Amplitude = 20
		ops = append(ops, op{
			name: "active/" + p.name,
			sys:  "active-" + p.name,
			cfg:  cfg,
			spec: core.ActiveDetectionSpec{
				Active: spec,
				Detect: core.ActiveDetectConfig{Duration: dur, Features: feats, TrainWindows: train},
			},
		})
	}
	return ops
}

// referenceOps are small ops the traced run replays, never runs, to
// measure a layer the workload itself does not use, so every per-layer
// metric is a measurement on every workload. They reuse the workloads'
// own constructions: the lab, WAN and exact-router systems, the
// threshold-mix league cells, a two-hop cascade and a CIT active flow.
func referenceOps(seed uint64) []op {
	var ops []op
	for _, o := range linkPaperOps(seed, 1) {
		if o.name == "fig4b/n=1000" || o.name == "fig8b/hour=00" || o.name == "exactnet/exact=true" {
			ops = append(ops, o)
		}
	}
	for _, o := range leagueOps(seed, 1, population.MixThreshold) {
		if o.spec.(core.DisclosureSpec).Population.Dummies != population.DummyUniform {
			ops = append(ops, o)
		}
	}
	for _, o := range routeOps(seed, 1, 8, 120) {
		if o.name == "cascade/hops=2" || o.name == "active/CIT" {
			ops = append(ops, o)
		}
	}
	return ops
}
