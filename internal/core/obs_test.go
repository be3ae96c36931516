package core

import (
	"testing"

	"linkpad/internal/netem"
	"linkpad/internal/obs"
)

// enableObs turns collection on for one test and restores the global
// collector afterwards.
func enableObs(t *testing.T) {
	t.Helper()
	obs.Reset()
	obs.SetEnabled(true)
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.Reset()
	})
}

// Cross-check against a known conservation law: on a lossy tap chain
// with no other impairments, every packet the gateway fires is either
// delivered to the adversary or counted as a NetemDrop. The Differ's
// first Next consumes two underlying packets (it needs a previous
// timestamp), so n inter-arrivals observe n+1 deliveries.
func TestObsTapLossConservation(t *testing.T) {
	enableObs(t)
	s := labSystem(t, func(c *Config) {
		c.Hops = nil // routers delay but never drop; drop them for an exact count anyway
		c.TapImpair = &netem.Impairment{LossProb: 0.05}
	})
	d, err := s.tap(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	for i := 0; i < n; i++ {
		d.Next()
	}
	d.FlushObs()
	snap := obs.Snapshot()
	drops := snap[obs.NetemDrop]
	fires := snap[obs.GatewayPayload] + snap[obs.GatewayDummy]
	if drops == 0 {
		t.Fatal("5% tap loss over 20k packets produced no NetemDrop counts")
	}
	if want := uint64(n) + 1 + drops; fires != want {
		t.Errorf("gateway fired %d packets; want delivered+dropped = %d (drops=%d)", fires, want, drops)
	}
}

// Cross-check against the cascade's own matched-overhead accounting
// (the HopStats behind HopDummyFrac): the route shard's counters must
// agree exactly with what the per-hop probes report — total emissions
// split across timer gateways and the mix, and the dummy share of the
// gateway emissions.
func TestObsCascadeHopAccounting(t *testing.T) {
	enableObs(t)
	sys := labSystem(t, nil)
	spec := CascadeSpec{
		Hops: []CascadeHop{
			{}, // CIT at the system default tau
			{Policy: CascadeMix},
			{Policy: CascadeVIT, SigmaT: 30e-6},
		},
		Flows: 2,
	}
	route, err := sys.buildRoute(spec, 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		route.Exit.Next()
	}
	route.Probe.Flush()
	snap := obs.Snapshot()
	var gwEmitted, gwDummies, mixEmitted uint64
	for _, probe := range route.Hops {
		st := probe()
		if st.Policy == "MIX" {
			mixEmitted += st.Emitted
		} else {
			gwEmitted += st.Emitted
			gwDummies += st.Dummies
		}
	}
	if gwEmitted == 0 || gwDummies == 0 || mixEmitted == 0 {
		t.Fatalf("degenerate route: gw=%d dummies=%d mix=%d", gwEmitted, gwDummies, mixEmitted)
	}
	if got := snap[obs.GatewayPayload] + snap[obs.GatewayDummy]; got != gwEmitted {
		t.Errorf("counter gateway emissions = %d, hop probes say %d", got, gwEmitted)
	}
	if got := snap[obs.GatewayDummy]; got != gwDummies {
		t.Errorf("counter gateway dummies = %d, hop probes say %d", got, gwDummies)
	}
	if got := snap[obs.MixPacket]; got != mixEmitted {
		t.Errorf("counter mix packets = %d, hop probe says %d", got, mixEmitted)
	}
}
