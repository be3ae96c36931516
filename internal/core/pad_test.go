package core

import (
	"math"
	"testing"

	"linkpad/internal/cascade"
	"linkpad/internal/gateway"
	"linkpad/internal/netem"
	"linkpad/internal/stats"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// padHop is the one builder of every padded hop, so its draw order is
// what every golden table depends on. Each case builds the hop twice from
// equal seeds — once through padHop, once by hand with the documented
// splits (a timer hop: VIT intervals, then phase, then gateway; a mix
// hop: one split) — and requires identical departures, an identical
// master state afterwards, and the probe's policy name.
func TestPadHopMatchesHandBuilt(t *testing.T) {
	const tau, sigmaT = 10e-3, 300e-6
	jitter := gateway.DefaultJitter()
	timer := func(policy gateway.TimerPolicy, phased bool) func(src traffic.Source, m *xrand.Rand) (netem.TimeStream, error) {
		return func(src traffic.Source, m *xrand.Rand) (netem.TimeStream, error) {
			p := policy
			if phased {
				var err error
				if p, err = cascade.NewPhasedPolicy(policy, m.Split()); err != nil {
					return nil, err
				}
			}
			return gateway.New(gateway.Config{Policy: p, Jitter: jitter, Payload: src, RNG: m.Split()})
		}
	}
	mix := func(k int) func(src traffic.Source, m *xrand.Rand) (netem.TimeStream, error) {
		return func(src traffic.Source, m *xrand.Rand) (netem.TimeStream, error) {
			return gateway.NewMix(gateway.MixConfig{K: k, SendSpacing: defaultMixSpacing, Payload: src, Jitter: jitter, RNG: m.Split()})
		}
	}
	// vit draws its interval stream from the hand-built master first.
	vit := func(tau float64, phased bool) func(src traffic.Source, m *xrand.Rand) (netem.TimeStream, error) {
		return func(src traffic.Source, m *xrand.Rand) (netem.TimeStream, error) {
			policy, err := gateway.NewVIT(tau, sigmaT, m.Split())
			if err != nil {
				return nil, err
			}
			return timer(policy, phased)(src, m)
		}
	}
	cit := func(tau float64) gateway.TimerPolicy {
		p, err := gateway.NewCIT(tau)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	adaptive, err := gateway.NewAdaptive(tau, 3*tau, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := labSystem(t, nil)
	sys := func(mutate func(*Config)) padPolicy { return labSystem(t, mutate).systemPad() }
	cases := []struct {
		name   string
		policy padPolicy
		want   string
		hand   func(src traffic.Source, m *xrand.Rand) (netem.TimeStream, error)
	}{
		{"system CIT", sys(nil), "CIT", timer(cit(tau), false)},
		{"system VIT", sys(func(c *Config) { c.SigmaT = sigmaT }), "VIT", vit(tau, false)},
		{"system adaptive", sys(func(c *Config) { c.Adaptive = &AdaptiveSpec{IdleFactor: 3, IdleAfter: 2} }),
			"ADAPTIVE", timer(adaptive, false)},
		{"system mix", sys(func(c *Config) { c.Mix = &MixSpec{K: 4} }), "MIX", mix(4)},
		{"hop CIT", s.hopPad(CascadeHop{}), "CIT", timer(cit(tau), true)},
		{"hop VIT", s.hopPad(CascadeHop{Policy: CascadeVIT, SigmaT: sigmaT}), "VIT", vit(tau, true)},
		{"hop mix", s.hopPad(CascadeHop{Policy: CascadeMix}), "MIX", mix(defaultMixK)},
		// A mix hop batches defaultMixK even on a system whose own mix
		// gateway uses another K: hops do not inherit Config.Mix.
		{"hop mix default K", labSystem(t, func(c *Config) { c.Mix = &MixSpec{K: 4} }).hopPad(CascadeHop{Policy: CascadeMix}),
			"MIX", mix(defaultMixK)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payload := func() traffic.Source {
				src, err := traffic.NewPoisson(40, xrand.New(11))
				if err != nil {
					t.Fatal(err)
				}
				return src
			}
			gotMaster, wantMaster := xrand.New(7), xrand.New(7)
			got, probe, err := s.padHop(tc.policy, payload(), gotMaster, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.hand(payload(), wantMaster)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2000; i++ {
				if g, w := got.Next(), want.Next(); g != w {
					t.Fatalf("departure %d: padHop %v, hand-built %v", i, g, w)
				}
			}
			if gotMaster.Uint64() != wantMaster.Uint64() {
				t.Errorf("padHop left master at a different draw than the documented splits")
			}
			if st := probe(); st.Policy != tc.want || st.Emitted != 2000 {
				t.Errorf("probe = %+v; want policy %s with 2000 emitted", st, tc.want)
			}
		})
	}
}

// The cascade reduces to the paper's single padded link at its
// degenerate point: one hop at the system's τ and σ_T emits the PIAT process of System.PIATSource for the same
// class; the hop's private phase shifts the grid, not the intervals.
// The 10th PIAT of each of n independent flows and replicas gives two
// iid samples, compared by the two-sample KS bound at α = 0.001.
func TestCascadeOneHopReducesToLink(t *testing.T) {
	const n, pick = 4000, 10
	bound := 1.949 * math.Sqrt(2.0/n)
	for _, tc := range []struct {
		name   string
		sigmaT float64
		hop    CascadeHop
	}{
		{"CIT", 0, CascadeHop{}},
		{"VIT", 300e-6, CascadeHop{Policy: CascadeVIT, SigmaT: 300e-6}},
	} {
		s := labSystem(t, func(c *Config) { c.SigmaT = tc.sigmaT })
		spec := CascadeSpec{Hops: []CascadeHop{tc.hop}, Flows: 2}
		for class := range s.cfg.Rates {
			link, hop := make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				src, err := s.PIATSource(class, uint64(i+1))
				if err != nil {
					t.Fatal(err)
				}
				route, err := s.buildRoute(spec, class, i, false)
				if err != nil {
					t.Fatal(err)
				}
				d := netem.NewDiffer(route.Exit, nil)
				for k := 0; k < pick; k++ {
					link[i], hop[i] = src.Next(), d.Next()
				}
			}
			ks, err := stats.KSDistance(link, hop)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s class %d: KS = %.4f (bound %.4f)", tc.name, class, ks, bound)
			if ks > bound {
				t.Errorf("%s class %d: KS(one-hop cascade, link) = %.4f > %.4f", tc.name, class, ks, bound)
			}
		}
	}
}
