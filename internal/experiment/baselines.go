package experiment

import (
	"fmt"

	"linkpad/internal/core"
)

func init() {
	registerCells("baseline-policies", baselinePolicyCells)
}

// baselinePolicies is the baseline-policies sweep axis.
var baselinePolicies = []struct {
	code float64
	name string
	mut  func(*core.Config)
}{
	{0, "CIT", func(*core.Config) {}},
	{1, "VIT-30us", func(c *core.Config) { c.SigmaT = 30e-6 }},
	{2, "ADAPTIVE-x4", func(c *core.Config) {
		c.Adaptive = &core.AdaptiveSpec{IdleFactor: 4, IdleAfter: 3}
	}},
	{3, "MIX-8", func(c *core.Config) {
		c.Mix = &core.MixSpec{K: 8}
	}},
}

// baselinePolicyCells compares the three padding policies the paper's
// narrative contrasts — the common CIT, the proposed VIT, and the
// related-work adaptive masking (Timmerman 1997, §2) — on all three axes
// of the trade-off: security (detection rate per feature), bandwidth
// (padded packet rate at low payload), and QoS (mean payload queueing
// delay).
var baselinePolicyCells = &cellExperiment{
	title:   "Padding policies: security vs bandwidth vs QoS (CIT / VIT / adaptive masking)",
	columns: []string{"policy", "mean_emp", "var_emp", "ent_emp", "padded_pps_low", "mean_delay_ms"},
	ncells:  func(Options) int { return len(baselinePolicies) },
	run: func(o Options, cell int) ([]float64, error) {
		const n = 1000
		p := baselinePolicies[cell]
		cfg := labConfig(o)
		p.mut(&cfg)
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		row, err := detectionRow(o, sys, p.code, core.AttackConfig{
			WindowSize:     n,
			TrainWindows:   o.windows(120),
			EvalWindows:    o.windows(120),
			SkipEmpiricalR: true,
		}, paperFeatures)
		if err != nil {
			return nil, err
		}
		pps, delay, err := padCost(sys, 0, o.windows(120)*n/4)
		return append(row, pps, delay*1e3), err
	},
	notes: func(o Options, t *Table) {
		for _, p := range baselinePolicies {
			t.Notef("policy %d = %s", int(p.code), p.name)
		}
		t.Notef("padded_pps_low: padded packet rate under the low (10pps) payload; CIT/VIT pay 100pps always")
		t.Notef("adaptive masking saves bandwidth but leaks the rate at first order: the mean feature alone defeats it")
		t.Notef("the Chaum mix (no dummies) is cheapest and leaks most: burst gaps are Erlang(K, lambda)")
	},
}

// padCost measures the padded packet rate and the mean payload queueing
// delay for one class over `packets` padded packets, for both timer
// gateways and mixes.
func padCost(sys *core.System, class, packets int) (pps, meanDelay float64, err error) {
	var (
		next  func() float64
		delay func() float64
	)
	if sys.Config().Mix != nil {
		mix, err := sys.MixGateway(class, 99)
		if err != nil {
			return 0, 0, err
		}
		next, delay = mix.Next, mix.MeanDelay
	} else {
		gw, err := sys.Gateway(class, 99)
		if err != nil {
			return 0, 0, err
		}
		next = gw.Next
		delay = func() float64 { return gw.Stats().MeanPayloadDelay() }
	}
	var last float64
	for i := 0; i < packets; i++ {
		last = next()
	}
	if last <= 0 {
		return 0, 0, fmt.Errorf("experiment: gateway produced non-positive horizon")
	}
	return float64(packets) / last, delay(), nil
}
