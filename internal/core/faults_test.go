package core

import (
	"reflect"
	"testing"

	"linkpad/internal/analytic"
	"linkpad/internal/netem"
	"linkpad/internal/population"
)

// Fault-injection wiring at the system layer: impairment and churn
// specs must validate with the config, a *disabled* impairment must be
// bit-for-bit invisible (the golden gate in miniature), and an enabled
// one must actually reach the streams.

func TestFaultConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.PathImpair = &netem.Impairment{LossProb: 2} },
		func(c *Config) { c.TapImpair = &netem.Impairment{ReorderProb: 0.1} },
		func(c *Config) { c.EntryTapImpair = &netem.Impairment{DupProb: -1} },
		func(c *Config) {
			c.TapImpair = &netem.Impairment{GE: &netem.GilbertElliott{PGoodBad: -1}}
		},
	}
	for i, mutate := range bad {
		cfg := DefaultLabConfig()
		mutate(&cfg)
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("bad fault config %d accepted", i)
		}
	}
}

func TestChurnSpecValidation(t *testing.T) {
	s := labSystem(t, nil)
	for _, churn := range []*ChurnSpec{
		{MeanOn: 0, MeanOff: 1},
		{MeanOn: 1, MeanOff: -1},
	} {
		_, err := runSpec(s, DisclosureSpec{
			Population: PopulationSpec{Users: 8, Recipients: 20, Churn: churn},
			Disclosure: population.DisclosureConfig{MaxRounds: 50},
		})
		if err == nil {
			t.Errorf("bad churn spec %+v accepted", churn)
		}
	}
}

// TestDisabledImpairmentIsIdentity: a non-nil all-zero impairment spec
// must produce results identical to no spec at all — no RNG draw, no
// stream element, nothing.
func TestDisabledImpairmentIsIdentity(t *testing.T) {
	attack := AttackConfig{
		Feature:      analytic.FeatureEntropy,
		WindowSize:   200,
		TrainWindows: 40,
		EvalWindows:  40,
	}
	spec := AttackSetSpec{Attack: attack, Features: []analytic.Feature{attack.Feature}}
	base, err := runSpec(labSystem(t, nil), spec)
	if err != nil {
		t.Fatal(err)
	}
	zeroed, err := runSpec(labSystem(t, func(c *Config) {
		c.PathImpair = &netem.Impairment{}
		c.TapImpair = &netem.Impairment{}
		c.EntryTapImpair = &netem.Impairment{}
	}), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zeroed.AttackSet, base.AttackSet) {
		t.Errorf("all-zero impairments perturbed the attack: %+v != %+v", zeroed.AttackSet[0], base.AttackSet[0])
	}
}

// TestEnabledImpairmentReachesStreams: heavy tap loss must move the
// attack result — the knob is actually wired into the capture path.
func TestEnabledImpairmentReachesStreams(t *testing.T) {
	attack := AttackConfig{
		Feature:      analytic.FeatureEntropy,
		WindowSize:   200,
		TrainWindows: 40,
		EvalWindows:  40,
	}
	spec := AttackSetSpec{Attack: attack, Features: []analytic.Feature{attack.Feature}}
	base, err := runSpec(labSystem(t, nil), spec)
	if err != nil {
		t.Fatal(err)
	}
	impaired, err := runSpec(labSystem(t, func(c *Config) {
		c.TapImpair = &netem.Impairment{GE: &netem.GilbertElliott{
			PGoodBad: 0.2, PBadGood: 0.3, LossBad: 0.8}}
	}), spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(impaired.AttackSet, base.AttackSet) {
		t.Error("a heavy bursty tap impairment left the attack bit-identical")
	}
}

// TestChurnedDisclosureRuns: a churned population runs end to end and
// reports presence schedules for every user through the engine.
func TestChurnedDisclosureRuns(t *testing.T) {
	s := labSystem(t, nil)
	out, err := runSpec(s, DisclosureSpec{
		Population: PopulationSpec{
			Users:      12,
			Recipients: 30,
			Churn:      &ChurnSpec{MeanOn: 0.2, MeanOff: 0.2},
		},
		Disclosure: population.DisclosureConfig{MaxRounds: 200, ChurnAware: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Disclosure
	if res.Rounds != 200 {
		t.Errorf("observed %d rounds, want the full 200 budget", res.Rounds)
	}
	if len(res.Targets) == 0 {
		t.Fatal("no targets reported")
	}
}
