package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"linkpad/internal/analytic"
	"linkpad/internal/gateway"
	"linkpad/internal/netem"
	"linkpad/internal/traffic"
)

func labSystem(t testing.TB, mutate func(*Config)) *System {
	t.Helper()
	cfg := DefaultLabConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runSpec builds spec on s and runs it with default options: the one
// entry API, System.Build then Scenario.Run.
func runSpec(s *System, spec Spec) (*Result, error) {
	return runSpecAt(s, spec, 0)
}

// runSpecAt builds spec and runs it at the given worker width.
func runSpecAt(s *System, spec Spec, workers int) (*Result, error) {
	sc, err := s.Build(spec)
	if err != nil {
		return nil, err
	}
	return sc.Run(context.Background(), RunOptions{Workers: workers})
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Tau = 0 },
		func(c *Config) { c.SigmaT = -1 },
		func(c *Config) { c.Rates = c.Rates[:1] },
		func(c *Config) { c.Rates[0].PPS = 0 },
		func(c *Config) { c.Rates[0].Label = "" },
		func(c *Config) { c.Rates[1].Label = c.Rates[0].Label },
		func(c *Config) { c.Jitter.SigmaOS = -1 },
		func(c *Config) { c.Hops = []HopSpec{{CapacityBps: 0, PacketBytes: 1500}} },
		func(c *Config) {
			c.Hops = []HopSpec{{CapacityBps: 100e6, PacketBytes: 1500,
				Util: traffic.Diurnal{Trough: 0.5, Peak: 0.2}}}
		},
		func(c *Config) {
			c.Hops = []HopSpec{{CapacityBps: 100e6, PacketBytes: 1500, PropDelay: -1}}
		},
		func(c *Config) { c.TapImpair = &netem.Impairment{LossProb: 1} },
		func(c *Config) { c.TapResolution = -1 },
		func(c *Config) { c.StartHour = 24 },
	}
	for i, mutate := range bad {
		cfg := DefaultLabConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := DefaultLabConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// TestConfigRejectsNonFinite: NewSystem refuses every NaN or infinite
// float a spec can carry, with an error naming the field. An infinite
// rate or period would keep the gateway's admission loop from ever
// exiting.
func TestConfigRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	hop := func(mutate func(*HopSpec)) func(*Config) {
		return func(c *Config) {
			h := HopSpec{CapacityBps: 100e6, PacketBytes: 200, Util: traffic.Constant(0.3)}
			mutate(&h)
			c.Hops = []HopSpec{h}
		}
	}
	cases := []struct {
		name, field string
		mutate      func(*Config)
	}{
		{"PPS +Inf", "Rates[1].PPS", func(c *Config) { c.Rates[1].PPS = inf }},
		{"PPS NaN", "Rates[0].PPS", func(c *Config) { c.Rates[0].PPS = nan }},
		{"Tau +Inf", "Tau", func(c *Config) { c.Tau = inf }},
		{"SigmaT NaN", "SigmaT", func(c *Config) { c.SigmaT = nan }},
		{"SigmaT +Inf", "SigmaT", func(c *Config) { c.SigmaT = inf }},
		{"IdleFactor +Inf", "Adaptive.IdleFactor", func(c *Config) { c.Adaptive = &AdaptiveSpec{IdleFactor: inf, IdleAfter: 1} }},
		{"CapacityBps +Inf", "Hops[0].CapacityBps", hop(func(h *HopSpec) { h.CapacityBps = inf })},
		{"PropDelay NaN", "Hops[0].PropDelay", hop(func(h *HopSpec) { h.PropDelay = nan })},
		{"PropDelay +Inf", "Hops[0].PropDelay", hop(func(h *HopSpec) { h.PropDelay = inf })},
		{"Util.Trough NaN", "Trough", hop(func(h *HopSpec) { h.Util.Trough = nan })},
		{"Util.Peak NaN", "Peak", hop(func(h *HopSpec) { h.Util.Peak = nan })},
		{"Util.TroughHour NaN", "TroughHour", hop(func(h *HopSpec) { h.Util.TroughHour = nan })},
		{"TapResolution NaN", "TapResolution", func(c *Config) { c.TapResolution = nan }},
		{"TapResolution +Inf", "TapResolution", func(c *Config) { c.TapResolution = inf }},
		{"StartHour NaN", "StartHour", func(c *Config) { c.StartHour = nan }},
		{"Jitter.SigmaOS NaN", "SigmaOS", func(c *Config) { c.Jitter.SigmaOS = nan }},
		{"Jitter.BlockMean +Inf", "BlockMean", func(c *Config) { c.Jitter.BlockMean = inf }},
		{"PathImpair.LossProb NaN", "PathImpair", func(c *Config) { c.PathImpair = &netem.Impairment{LossProb: nan} }},
	}
	for _, c := range cases {
		cfg := DefaultLabConfig()
		c.mutate(&cfg)
		_, err := NewSystem(cfg)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: error %q does not name %s", c.name, err, c.field)
		}
	}
}

func TestPIATSourceDeterministicReplicas(t *testing.T) {
	s := labSystem(t, nil)
	a, err := s.PIATSource(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.PIATSource(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.PIATSource(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	differ := false
	for i := 0; i < 1000; i++ {
		xa, xb, xc := a.Next(), b.Next(), c.Next()
		if xa != xb {
			t.Fatalf("same stream ID diverged at %d", i)
		}
		if xa != xc {
			differ = true
		}
	}
	if !differ {
		t.Error("different stream IDs produced identical streams")
	}
}

func TestPIATSourceClassesDiffer(t *testing.T) {
	s := labSystem(t, nil)
	a, err := s.PIATSource(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.PIATSource(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			same = false
			break
		}
	}
	if same {
		t.Error("different classes produced identical streams")
	}
	if _, err := s.PIATSource(5, 1); err == nil {
		t.Error("out-of-range class accepted")
	}
}

// The headline result (paper Fig. 4b): against CIT padding observed at the
// gateway, the entropy and variance features reach ~100% detection at
// n = 1000 while the mean feature stays near guessing.
func TestCITLabAttackHeadline(t *testing.T) {
	s := labSystem(t, nil)
	for _, tc := range []struct {
		feature  analytic.Feature
		min, max float64
	}{
		{analytic.FeatureEntropy, 0.93, 1.01},
		{analytic.FeatureVariance, 0.90, 1.01},
		{analytic.FeatureMean, 0.40, 0.72},
	} {
		out, err := runSpec(s, AttackSetSpec{Attack: AttackConfig{
			WindowSize:   1000,
			TrainWindows: 150,
			EvalWindows:  150,
		}, Features: []analytic.Feature{tc.feature}})
		if err != nil {
			t.Fatal(err)
		}
		res := out.AttackSet[0]
		if res.DetectionRate < tc.min || res.DetectionRate > tc.max {
			t.Errorf("%v: detection = %v, want in [%v, %v]",
				tc.feature, res.DetectionRate, tc.min, tc.max)
		}
		if res.EmpiricalR < 1.5 || res.EmpiricalR > 2.4 {
			t.Errorf("%v: empirical r = %v, want ~1.9", tc.feature, res.EmpiricalR)
		}
	}
}

// Empirical detection should track the closed-form prediction for the
// variance and entropy features (paper Fig. 4b's "curves coincide well").
func TestEmpiricalMatchesTheory(t *testing.T) {
	s := labSystem(t, nil)
	for _, f := range []analytic.Feature{analytic.FeatureVariance, analytic.FeatureEntropy} {
		for _, n := range []int{200, 1000} {
			out, err := runSpec(s, AttackSetSpec{Attack: AttackConfig{
				WindowSize:   n,
				TrainWindows: 150,
				EvalWindows:  150,
			}, Features: []analytic.Feature{f}})
			if err != nil {
				t.Fatal(err)
			}
			res := out.AttackSet[0]
			if math.Abs(res.DetectionRate-res.TheoryDetectionRate) > 0.12 {
				t.Errorf("%v n=%d: empirical %v vs theory %v",
					f, n, res.DetectionRate, res.TheoryDetectionRate)
			}
		}
	}
}

// VIT with a large σ_T defeats the attack (paper Fig. 5a).
func TestVITDefeatsAttack(t *testing.T) {
	s := labSystem(t, func(c *Config) { c.SigmaT = 50e-6 })
	for _, f := range []analytic.Feature{analytic.FeatureVariance, analytic.FeatureEntropy} {
		out, err := runSpec(s, AttackSetSpec{Attack: AttackConfig{
			WindowSize:   1000,
			TrainWindows: 150,
			EvalWindows:  150,
		}, Features: []analytic.Feature{f}})
		if err != nil {
			t.Fatal(err)
		}
		res := out.AttackSet[0]
		if res.DetectionRate > 0.62 {
			t.Errorf("%v under VIT: detection = %v, want ~0.5", f, res.DetectionRate)
		}
	}
}

// Cross traffic lowers CIT detection (paper Fig. 6 direction).
func TestCrossTrafficLowersDetection(t *testing.T) {
	clean := labSystem(t, nil)
	congested := labSystem(t, func(c *Config) {
		c.Hops = []HopSpec{{
			CapacityBps: 100e6, PacketBytes: 1500,
			Util: traffic.Constant(0.45),
		}}
	})
	attack := AttackConfig{
		Feature:      analytic.FeatureVariance,
		WindowSize:   1000,
		TrainWindows: 120,
		EvalWindows:  120,
	}
	out, err := runSpec(clean, AttackSetSpec{Attack: attack, Features: []analytic.Feature{attack.Feature}})
	if err != nil {
		t.Fatal(err)
	}
	a := out.AttackSet[0]
	out, err = runSpec(congested, AttackSetSpec{Attack: attack, Features: []analytic.Feature{attack.Feature}})
	if err != nil {
		t.Fatal(err)
	}
	b := out.AttackSet[0]
	if b.DetectionRate >= a.DetectionRate-0.05 {
		t.Errorf("congestion did not lower variance detection: clean %v vs congested %v",
			a.DetectionRate, b.DetectionRate)
	}
}

// The replica attack's training windows, evaluation windows and
// variance-ratio diagnostics must read pairwise distinct stream
// replicas: an equal ID would replay the identical realization.
func TestRunAttackStreamSeparation(t *testing.T) {
	seen := map[uint64]string{evalStreamID + 1000: "diagnostics"}
	for w := 0; w < 100000; w++ {
		for _, p := range []struct {
			name string
			id   uint64
		}{{"train", windowStreamID(trainStreamID, w)}, {"eval", windowStreamID(evalStreamID, w)}} {
			if prev, ok := seen[p.id]; ok {
				t.Fatalf("%s window %d reads stream %#x, already read by %s", p.name, w, p.id, prev)
			}
			seen[p.id] = p.name
		}
	}
}

func TestModelRMatchesGatewayPrediction(t *testing.T) {
	s := labSystem(t, nil)
	r, err := s.ModelR(0)
	if err != nil {
		t.Fatal(err)
	}
	cit, err := gateway.NewCIT(10e-3)
	if err != nil {
		t.Fatal(err)
	}
	want := gateway.VarianceRatio(cit, gateway.DefaultJitter(), 10, 40)
	if math.Abs(r-want) > 1e-12 {
		t.Errorf("ModelR = %v, want %v", r, want)
	}
	// Adding a congested hop pulls r toward 1.
	s2 := labSystem(t, func(c *Config) {
		c.Hops = []HopSpec{{CapacityBps: 100e6, PacketBytes: 1500, Util: traffic.Constant(0.4)}}
	})
	r2, err := s2.ModelR(0)
	if err != nil {
		t.Fatal(err)
	}
	if r2 >= r || r2 < 1 {
		t.Errorf("hop should shrink r: %v -> %v", r, r2)
	}
}

func TestTheoreticalDetectionRate(t *testing.T) {
	s := labSystem(t, nil)
	v, err := s.TheoreticalDetectionRate(analytic.FeatureEntropy, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v < 0.97 {
		t.Errorf("theory at gateway = %v, want ~0.99", v)
	}
}

// The analytic design guideline gives a positive σ_T when CIT is
// detectable; the closed-form value is a lower bound on what the
// mechanistic gateway needs (the blocking mixture leaks shape information
// beyond the Gaussian theorems).
func TestDesignVITAnalytic(t *testing.T) {
	s := labSystem(t, nil)
	sigmaT, err := s.DesignVIT(analytic.FeatureEntropy, 0.6, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if sigmaT <= 0 {
		t.Fatalf("CIT is detectable at n=1000; expected positive σ_T, got %v", sigmaT)
	}
	// The analytic value lands in the µs decade for the calibrated
	// gateway (r_CIT ≈ 1.9 → required r ≈ 1.1).
	if sigmaT < 1e-6 || sigmaT > 100e-6 {
		t.Errorf("analytic σ_T = %v, expected µs scale", sigmaT)
	}
}

// Empirical design round trip: calibrate σ_T against the simulated
// attacker, build the system with it, and verify an independent attack is
// capped near the target.
func TestCalibrateVITRoundTrip(t *testing.T) {
	s := labSystem(t, nil)
	attack := AttackConfig{
		Feature:      analytic.FeatureEntropy,
		WindowSize:   500,
		TrainWindows: 100,
		EvalWindows:  100,
	}
	sigmaT, err := s.CalibrateVIT(context.Background(), 0.6, attack, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sigmaT <= 0 {
		t.Fatal("expected positive calibrated σ_T")
	}
	hard := labSystem(t, func(c *Config) {
		c.SigmaT = sigmaT
		c.Seed = 77 // independent system realization
	})
	out, err := runSpec(hard, AttackSetSpec{Attack: attack, Features: []analytic.Feature{attack.Feature}})
	if err != nil {
		t.Fatal(err)
	}
	res := out.AttackSet[0]
	if res.DetectionRate > 0.6+0.08 {
		t.Errorf("calibrated σ_T=%v still allows detection %v > target 0.6", sigmaT, res.DetectionRate)
	}
}

func TestCalibrateVITErrors(t *testing.T) {
	s := labSystem(t, nil)
	if _, err := s.CalibrateVIT(context.Background(), 0.5, AttackConfig{}, RunOptions{}); err == nil {
		t.Error("target 0.5 should fail")
	}
	if _, err := s.CalibrateVIT(context.Background(), 1.0, AttackConfig{}, RunOptions{}); err == nil {
		t.Error("target 1.0 should fail")
	}
	// A done context stops the search at its first attack set.
	cause := errors.New("calibration stopped")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if _, err := s.CalibrateVIT(ctx, 0.6, AttackConfig{}, RunOptions{}); !errors.Is(err, cause) {
		t.Errorf("cancelled calibration returned %v, want its cause", err)
	}
}

// Adaptive masking (Timmerman baseline) leaks the rate at first order:
// even the sample-mean feature — useless against CIT/VIT — detects it
// almost surely.
func TestAdaptiveBaselineLeaksToMeanFeature(t *testing.T) {
	s := labSystem(t, func(c *Config) {
		c.Adaptive = &AdaptiveSpec{IdleFactor: 4, IdleAfter: 3}
	})
	out, err := runSpec(s, AttackSetSpec{Attack: AttackConfig{
		WindowSize:   200,
		TrainWindows: 80,
		EvalWindows:  80,
	}, Features: []analytic.Feature{analytic.FeatureMean}})
	if err != nil {
		t.Fatal(err)
	}
	res := out.AttackSet[0]
	if res.DetectionRate < 0.95 {
		t.Errorf("mean-feature detection vs adaptive masking = %v, want ~1.0", res.DetectionRate)
	}
	if _, err := s.ModelR(0); err == nil {
		t.Error("ModelR should refuse adaptive systems")
	}
}

// The Chaum mix baseline leaks the rate at first order too: mean-feature
// detection is near-perfect, and ModelR/Gateway refuse mix systems.
func TestMixBaseline(t *testing.T) {
	s := labSystem(t, func(c *Config) {
		c.Mix = &MixSpec{K: 8}
	})
	out, err := runSpec(s, AttackSetSpec{Attack: AttackConfig{
		WindowSize:   100,
		TrainWindows: 80,
		EvalWindows:  80,
	}, Features: []analytic.Feature{analytic.FeatureMean}})
	if err != nil {
		t.Fatal(err)
	}
	res := out.AttackSet[0]
	if res.DetectionRate < 0.95 {
		t.Errorf("mean-feature detection vs mix = %v, want ~1.0", res.DetectionRate)
	}
	if _, err := s.ModelR(0); err == nil {
		t.Error("ModelR should refuse mix systems")
	}
	if _, err := s.Gateway(0, 1); err == nil {
		t.Error("Gateway should refuse mix systems")
	}
	mix, err := s.MixGateway(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		mix.Next()
	}
	if mix.MeanDelay() <= 0 || mix.MaxDelay() < mix.MeanDelay() {
		t.Errorf("mix delays: mean %v max %v", mix.MeanDelay(), mix.MaxDelay())
	}
	// Non-mix systems refuse MixGateway.
	plain := labSystem(t, nil)
	if _, err := plain.MixGateway(0, 1); err == nil {
		t.Error("MixGateway should refuse non-mix systems")
	}
}

func TestMixConfigValidation(t *testing.T) {
	for i, mutate := range []func(*Config){
		func(c *Config) { c.Mix = &MixSpec{K: 1} },
		func(c *Config) { c.Mix = &MixSpec{K: 8}; c.SigmaT = 1e-6 },
		func(c *Config) {
			c.Mix = &MixSpec{K: 8}
			c.Adaptive = &AdaptiveSpec{IdleFactor: 4, IdleAfter: 3}
		},
	} {
		cfg := DefaultLabConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid mix config accepted", i)
		}
	}
}

func TestAdaptiveConfigValidation(t *testing.T) {
	bad := []AdaptiveSpec{
		{IdleFactor: 1, IdleAfter: 3},
		{IdleFactor: 0.5, IdleAfter: 3},
		{IdleFactor: 4, IdleAfter: 0},
	}
	for i, spec := range bad {
		cfg := DefaultLabConfig()
		spec := spec
		cfg.Adaptive = &spec
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid adaptive spec accepted", i)
		}
	}
	cfg := DefaultLabConfig()
	cfg.SigmaT = 1e-6
	cfg.Adaptive = &AdaptiveSpec{IdleFactor: 4, IdleAfter: 3}
	if err := cfg.Validate(); err == nil {
		t.Error("SigmaT + Adaptive accepted")
	}
}

func TestPayloadModels(t *testing.T) {
	for _, m := range []PayloadModel{PayloadPoisson, PayloadCBR, PayloadOnOff} {
		s := labSystem(t, func(c *Config) { c.Payload = m })
		src, err := s.PIATSource(0, 1)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for i := 0; i < 1000; i++ {
			if x := src.Next(); x < 0 {
				t.Fatalf("%v: negative PIAT", m)
			}
		}
	}
	if PayloadPoisson.String() != "poisson" || PayloadCBR.String() != "cbr" ||
		PayloadOnOff.String() != "onoff" || PayloadModel(9).String() != "unknown" {
		t.Error("payload model names broken")
	}
	s := labSystem(t, nil)
	s.cfg.Payload = PayloadModel(9)
	if _, err := s.PIATSource(0, 1); err == nil {
		t.Error("unknown payload model accepted")
	}
}

func TestTapImperfections(t *testing.T) {
	s := labSystem(t, func(c *Config) {
		c.TapImpair = &netem.Impairment{LossProb: 0.05}
		c.TapResolution = 1e-6
	})
	src, err := s.PIATSource(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		x := src.Next()
		if x < 0 {
			t.Fatal("negative PIAT from quantized lossy tap")
		}
		sum += x
	}
	// 5% loss stretches the mean PIAT by ~1/0.95.
	mean := sum / n
	if math.Abs(mean-10e-3/0.95) > 0.1e-3 {
		t.Errorf("lossy mean PIAT = %v, want ~%v", mean, 10e-3/0.95)
	}
}

func TestLabelsAndConfigAccessors(t *testing.T) {
	s := labSystem(t, nil)
	ls := s.Labels()
	if len(ls) != 2 || ls[0] != "10pps" || ls[1] != "40pps" {
		t.Errorf("labels = %v", ls)
	}
	if s.Config().Tau != 10e-3 {
		t.Error("config accessor broken")
	}
}

func BenchmarkPIATSourceLab(b *testing.B) {
	s, err := NewSystem(DefaultLabConfig())
	if err != nil {
		b.Fatal(err)
	}
	src, err := s.PIATSource(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += src.Next()
	}
	_ = sink
}

func BenchmarkPIATSourceWAN(b *testing.B) {
	cfg := DefaultLabConfig()
	for i := 0; i < 15; i++ {
		cfg.Hops = append(cfg.Hops, HopSpec{
			CapacityBps: 100e6, PacketBytes: 1500,
			Util: traffic.Diurnal{Trough: 0.05, Peak: 0.35, TroughHour: 3},
		})
	}
	s, err := NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	src, err := s.PIATSource(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += src.Next()
	}
	_ = sink
}
