package experiment

import (
	"linkpad/internal/analytic"
	"linkpad/internal/core"
	"linkpad/internal/gateway"
	"linkpad/internal/stats"
	"linkpad/internal/traffic"
)

func init() {
	register("fig4a", Fig4a)
	register("fig4b", Fig4b)
	registerCells("fig5a", fig5aCells)
	registerCells("fig5b", fig5bCells)
	registerCells("fig6", fig6Cells)
	// Fig. 8(a): a campus path of a few lightly loaded routers.
	registerCells("fig8a", fig8Cells(
		"Detection rate over 24h, campus path, CIT, n=1000 (paper Fig. 8a)",
		campusHops(),
		"campus: 3 routers, diurnal utilization 2-8% — detection stays high all day (CIT unsafe on enterprise networks)"))
	// Fig. 8(b): a wide-area path of 15 routers with heavy diurnal
	// congestion.
	registerCells("fig8b", fig8Cells(
		"Detection rate over 24h, WAN path (15 routers), CIT, n=1000 (paper Fig. 8b)",
		wanHops(),
		"WAN: 15 routers, diurnal utilization 5-30% — detection lower overall but peaks at night (~2-4 AM): CIT unsafe even remotely"))
}

// labConfig is the paper's §5.1 laboratory setup (tap at GW1, no cross
// traffic) with the experiment's seed.
func labConfig(o Options) core.Config {
	cfg := core.DefaultLabConfig()
	cfg.Seed = o.Seed
	return cfg
}

// paperFeatures are the paper's three feature statistics, in the order
// its figures plot them.
var paperFeatures = []analytic.Feature{analytic.FeatureMean, analytic.FeatureVariance, analytic.FeatureEntropy}

// labHop is the Marconi-router hop of the §5.2 experiment. The shared
// 100 Mbit/s link carries small cross packets (~200 B, service 16 µs):
// with 1500 B cross packets even 5% utilization would bury the µs-scale
// gateway leak, collapsing every feature to 0.5 at once, whereas the
// paper's Fig. 6 shows a gradual decline — small packets reproduce that
// per-packet waiting scale.
func labHop(u float64) core.HopSpec {
	return core.HopSpec{
		CapacityBps: 100e6,
		PacketBytes: 200,
		Util:        traffic.Constant(u),
	}
}

// campusHops is the §5.3 campus path: a few gigabit backbone routers
// (1500 B service = 12 µs) with light diurnal load. Per-hop waiting
// variance stays a few µs², so detection remains high all day — the
// paper's Fig. 8(a) observation.
func campusHops() []core.HopSpec {
	hops := make([]core.HopSpec, 3)
	for i := range hops {
		hops[i] = core.HopSpec{
			CapacityBps: 1e9,
			PacketBytes: 1500,
			Util:        traffic.Diurnal{Trough: 0.02, Peak: 0.08, TroughHour: 3},
			PropDelay:   0.5e-3,
		}
	}
	return hops
}

// wanHops is the §5.3 Ohio State → Texas A&M path: 15 OC-12-class
// routers (622 Mbit/s, 1500 B service ≈ 19 µs) with a much larger diurnal
// congestion swing, pushing r near 1 in the afternoon but letting the
// leak peek through at night — the paper's Fig. 8(b) observation.
func wanHops() []core.HopSpec {
	hops := make([]core.HopSpec, 15)
	for i := range hops {
		hops[i] = core.HopSpec{
			CapacityBps: 622e6,
			PacketBytes: 1500,
			Util:        traffic.Diurnal{Trough: 0.05, Peak: 0.30, TroughHour: 3},
			PropDelay:   2e-3,
		}
	}
	return hops
}

// Fig4a reproduces Fig. 4(a): the padded traffic's PIAT probability
// density under low-rate and high-rate payload for CIT padding with zero
// cross traffic. Columns: PIAT offset from τ in µs, density for 10 pps,
// density for 40 pps (densities in 1/s, estimated with 2 µs bins). It
// stays a plain runner: its rows are the bins of one histogram pass.
func Fig4a(o Options) (*Table, error) {
	o = o.withDefaults()
	sys, err := core.NewSystem(labConfig(o))
	if err != nil {
		return nil, err
	}
	const binW = 2e-6
	nPIAT := o.windows(150) * 1000

	hists := make([]*stats.StreamHist, 2)
	summaries := make([]stats.Summary, 2)
	for class := 0; class < 2; class++ {
		src, err := sys.PIATSource(class, 1)
		if err != nil {
			return nil, err
		}
		h, err := stats.NewStreamHist(binW)
		if err != nil {
			return nil, err
		}
		xs := make([]float64, nPIAT)
		for i := range xs {
			xs[i] = src.Next()
		}
		h.AddAll(xs)
		hists[class] = h
		summaries[class] = stats.Summarize(xs)
	}

	t := &Table{
		ID:      "fig4a",
		Title:   "PIAT PDF of padded traffic, CIT, zero cross traffic (paper Fig. 4a)",
		Columns: []string{"piat_offset_us", "density_10pps", "density_40pps"},
	}
	tau := sys.Config().Tau
	density := func(class int, x float64) float64 {
		return float64(hists[class].Count(x)) / (float64(nPIAT) * binW)
	}
	for off := -30e-6; off <= 30e-6+1e-12; off += binW {
		x := tau + off
		if err := t.AddRow(off*1e6, density(0, x), density(1, x)); err != nil {
			return nil, err
		}
	}
	r := summaries[1].Variance / summaries[0].Variance
	t.Notef("n=%d PIATs per class, bin width 2us", nPIAT)
	t.Notef("mean PIAT: low %.6fms high %.6fms (equal means, paper obs. 2)",
		summaries[0].Mean*1e3, summaries[1].Mean*1e3)
	t.Notef("PIAT sigma: low %.3fus high %.3fus, variance ratio r=%.3f (paper obs. 3: r>1)",
		summaries[0].StdDev*1e6, summaries[1].StdDev*1e6, r)
	return t, nil
}

// Fig4b reproduces Fig. 4(b): detection rate vs sample size for the three
// feature statistics under CIT at the gateway output, with the
// closed-form theory evaluated at the measured variance ratio. It stays
// a plain runner: its note reports the n=2000 point's measured r, which
// no column holds.
func Fig4b(o Options) (*Table, error) {
	o = o.withDefaults()
	sys, err := core.NewSystem(labConfig(o))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig4b",
		Title: "Detection rate vs sample size, CIT, zero cross traffic (paper Fig. 4b)",
		Columns: []string{"n",
			"mean_emp", "mean_theory",
			"var_emp", "var_theory",
			"ent_emp", "ent_theory"},
	}
	ns := []int{100, 200, 500, 1000, 2000}
	var r float64
	for _, n := range ns {
		set, err := runAttackSet(o, sys, core.AttackConfig{
			WindowSize:   n,
			TrainWindows: o.windows(150),
			EvalWindows:  o.windows(150),
		}, paperFeatures)
		if err != nil {
			return nil, err
		}
		row := []float64{float64(n)}
		for _, res := range set {
			row = append(row, res.DetectionRate, res.TheoryDetectionRate)
		}
		if err := t.AddRow(row...); err != nil {
			return nil, err
		}
		r = set[0].EmpiricalR
	}
	t.Notef("measured r=%.3f at the gateway output; theory columns evaluate Theorems 1-3 at the measured r", r)
	t.Notef("%d training and %d evaluation windows per class per point", o.windows(150), o.windows(150))
	return t, nil
}

// fig5aSigmas is the Fig. 5(a) sweep axis: the VIT σ_T in µs.
var fig5aSigmas = []float64{0, 2, 5, 10, 15, 20, 30, 50, 100}

// fig5aCells reproduces Fig. 5(a): empirical detection rate vs the VIT
// interval standard deviation σ_T at sample size 2000. As σ_T grows the
// ratio r falls toward 1 and every feature collapses to guessing.
var fig5aCells = &cellExperiment{
	title:   "Detection rate vs sigma_T, VIT, n=2000 (paper Fig. 5a)",
	columns: []string{"sigma_t_us", "var_emp", "ent_emp", "mean_emp", "model_r"},
	ncells:  func(Options) int { return len(fig5aSigmas) },
	run: func(o Options, cell int) ([]float64, error) {
		cfg := labConfig(o)
		cfg.SigmaT = fig5aSigmas[cell] * 1e-6
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		row, err := detectionRow(o, sys, fig5aSigmas[cell], core.AttackConfig{
			WindowSize:     2000,
			TrainWindows:   o.windows(120),
			EvalWindows:    o.windows(120),
			SkipEmpiricalR: true,
		}, []analytic.Feature{analytic.FeatureVariance, analytic.FeatureEntropy, analytic.FeatureMean})
		if err != nil {
			return nil, err
		}
		r, err := sys.ModelR(0)
		return append(row, r), err
	},
	notes: func(o Options, t *Table) {
		t.Notef("sample size n=2000; %d train/%d eval windows per class per point", o.windows(120), o.windows(120))
		t.Notef("VIT with sigma_T >= ~30us drives r to 1 and detection to 0.5: the paper's core defense result")
	},
}

// fig5bSigmas is the Fig. 5(b) sweep axis: the VIT σ_T in µs.
var fig5bSigmas = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}

// gatewayClassVars returns the calibrated CIT gateway's PIAT variance
// under the low and the high payload rate.
func gatewayClassVars(o Options) (varL, varH float64, err error) {
	cfg := labConfig(o)
	cit, err := gateway.NewCIT(cfg.Tau)
	if err != nil {
		return 0, 0, err
	}
	return gateway.PIATVar(cit, cfg.Jitter, cfg.Rates[0].PPS), gateway.PIATVar(cit, cfg.Jitter, cfg.Rates[1].PPS), nil
}

// fig5bCells reproduces Fig. 5(b): the theoretical sample size n(99%)
// required for a 99% detection rate as a function of σ_T, from Theorems
// 2 and 3 with the calibrated gateway's class variances.
var fig5bCells = &cellExperiment{
	title:   "Theoretical sample size for 99% detection vs sigma_T (paper Fig. 5b)",
	columns: []string{"sigma_t_us", "r", "n99_variance", "n99_entropy"},
	ncells:  func(Options) int { return len(fig5bSigmas) },
	run: func(o Options, cell int) ([]float64, error) {
		varL, varH, err := gatewayClassVars(o)
		if err != nil {
			return nil, err
		}
		sigmaUS := fig5bSigmas[cell]
		s2 := sigmaUS * 1e-6 * sigmaUS * 1e-6
		r := (varH + s2) / (varL + s2)
		nv, err := analytic.SampleSizeVariance(r, 0.99)
		if err != nil {
			return nil, err
		}
		ne, err := analytic.SampleSizeEntropy(r, 0.99)
		return []float64{sigmaUS, r, nv, ne}, err
	},
	notes: func(o Options, t *Table) {
		// Every cell already computed these without error.
		varL, varH, _ := gatewayClassVars(o)
		t.Notef("gateway class variances: low %.4g s^2, high %.4g s^2", varL, varH)
		t.Notef("paper's benchmark: sigma_T=1ms needs n > 1e11 — see the last row")
	},
}

// fig6Utils is the Fig. 6 sweep axis: the shared link's utilization.
var fig6Utils = []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5}

// fig6Cells reproduces Fig. 6: detection rate vs shared-link utilization
// with lab cross traffic through one router, CIT padding, n = 1000.
var fig6Cells = &cellExperiment{
	title:   "Detection rate vs link utilization, CIT, one router (paper Fig. 6)",
	columns: []string{"utilization", "mean_emp", "var_emp", "ent_emp", "model_r"},
	ncells:  func(Options) int { return len(fig6Utils) },
	run: func(o Options, cell int) ([]float64, error) {
		cfg := labConfig(o)
		cfg.Hops = []core.HopSpec{labHop(fig6Utils[cell])}
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		row, err := detectionRow(o, sys, fig6Utils[cell], core.AttackConfig{
			WindowSize:     1000,
			TrainWindows:   o.windows(120),
			EvalWindows:    o.windows(120),
			SkipEmpiricalR: true,
		}, paperFeatures)
		if err != nil {
			return nil, err
		}
		r, err := sys.ModelR(0)
		return append(row, r), err
	},
	notes: func(o Options, t *Table) {
		t.Notef("sample size n=1000; 100 Mbit/s shared link, 200 B cross packets (service 16us)")
		t.Notef("expected shape: detection falls with utilization; entropy > variance (outlier robustness); mean ~ 0.5")
	},
}

// fig8Hours is the Fig. 8 sweep axis: the capture's start hour.
var fig8Hours = []float64{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22}

// fig8Cells builds the 24-hour detection-rate sweep for a given path.
func fig8Cells(title string, hops []core.HopSpec, note string) *cellExperiment {
	return &cellExperiment{
		title:   title,
		columns: []string{"hour", "mean_emp", "var_emp", "ent_emp"},
		ncells:  func(Options) int { return len(fig8Hours) },
		run: func(o Options, cell int) ([]float64, error) {
			hour := fig8Hours[cell]
			cfg := labConfig(o)
			cfg.Hops = hops
			cfg.StartHour = hour
			// decorrelate the hour points without changing the system identity
			cfg.Seed = o.Seed + uint64(hour*1e3)
			sys, err := core.NewSystem(cfg)
			if err != nil {
				return nil, err
			}
			return detectionRow(o, sys, hour, core.AttackConfig{
				WindowSize:     1000,
				TrainWindows:   o.windows(100),
				EvalWindows:    o.windows(100),
				SkipEmpiricalR: true,
			}, paperFeatures)
		},
		notes: func(o Options, t *Table) {
			t.Notef("sample size n=1000, %d train/%d eval windows per class per point", o.windows(100), o.windows(100))
			t.Notef("%s", note)
		},
	}
}
