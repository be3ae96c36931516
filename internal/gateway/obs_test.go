package gateway

import (
	"testing"

	"linkpad/internal/obs"
	"linkpad/internal/slab"
)

// The telemetry probe must be free in the slab path: a nil (disabled)
// probe is a predicted branch per event, and an attached shard is plain
// array arithmetic — neither may allocate. This is the contract that
// lets the probe stay wired into every gateway permanently.
func TestGatewayProbeAllocFree(t *testing.T) {
	for name, mk := range gatewayCases(t) {
		t.Run(name+"/disabled", func(t *testing.T) {
			g := mk(1)
			g.cfg.Probe = nil
			s := slab.New(slab.DefaultLen)
			g.NextSlab(s, slab.DefaultLen)
			if n := testing.AllocsPerRun(10, func() { g.NextSlab(s, slab.DefaultLen) }); n != 0 {
				t.Fatalf("NextSlab with disabled probe allocates %v times per slab; want 0", n)
			}
		})
		t.Run(name+"/enabled", func(t *testing.T) {
			g := mk(1)
			g.cfg.Probe = &obs.Shard{}
			s := slab.New(slab.DefaultLen)
			g.NextSlab(s, slab.DefaultLen)
			if n := testing.AllocsPerRun(10, func() { g.NextSlab(s, slab.DefaultLen) }); n != 0 {
				t.Fatalf("NextSlab with enabled probe allocates %v times per slab; want 0", n)
			}
		})
	}
}

// The probe's gateway counters must agree exactly with the gateway's
// own Stats accounting: every fire is either a payload or a dummy, and
// the shard records the same split.
func TestGatewayProbeMatchesStats(t *testing.T) {
	for name, mk := range gatewayCases(t) {
		t.Run(name, func(t *testing.T) {
			obs.Reset()
			defer obs.Reset()
			g := mk(1)
			sh := &obs.Shard{}
			g.cfg.Probe = sh
			s := slab.New(slab.DefaultLen)
			for i := 0; i < 50; i++ {
				g.NextSlab(s, slab.DefaultLen)
			}
			sh.Flush()
			snap := obs.Snapshot()
			st := g.Stats()
			if got := snap[obs.GatewayPayload]; got != st.PayloadSent {
				t.Errorf("probe payload = %d, stats = %d", got, st.PayloadSent)
			}
			if got := snap[obs.GatewayDummy]; got != st.Dummies {
				t.Errorf("probe dummies = %d, stats = %d", got, st.Dummies)
			}
			if got := snap[obs.GatewayPayload] + snap[obs.GatewayDummy]; got != st.Fires {
				t.Errorf("probe payload+dummy = %d, stats fires = %d", got, st.Fires)
			}
			if snap[obs.GatewayDummy] == 0 || snap[obs.GatewayPayload] == 0 {
				t.Errorf("degenerate run: payload=%d dummies=%d", snap[obs.GatewayPayload], snap[obs.GatewayDummy])
			}
		})
	}
}
