package core

import (
	"reflect"
	"runtime"
	"testing"

	"linkpad/internal/analytic"
	"linkpad/internal/cascade"
	"linkpad/internal/netem"
	"linkpad/internal/traffic"
)

// twoHopSpec is the small cascade the determinism tests run: two CIT
// hops, eight flows.
func twoHopSpec() CascadeSpec {
	return CascadeSpec{Hops: make([]CascadeHop, 2), Flows: 8}
}

// Cascade results must be byte-identical at any worker width, mirroring
// the replica/session/population invariance tests: flows are the unit of
// parallelism and every flow's route derives from (seed, class, flowID)
// role streams alone.
func TestRunCascadeCorrelationWorkerInvariance(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := CascadeCorrConfig{
		Duration:      20,
		FeatureWindow: 100,
		TrainWindows:  12,
		Features:      []analytic.Feature{analytic.FeatureVariance},
	}
	run := func(workers int) *cascade.Result {
		res, err := runSpecAt(sys, CascadeCorrelationSpec{Cascade: twoHopSpec(), Corr: cfg}, workers)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cascade
	}
	ref := run(1)
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
		got := run(w)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: cascade result differs\n got %+v\nwant %+v", w, got, ref)
		}
	}
}

func TestCascadeSpecValidation(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	vit := CascadeHop{Policy: CascadeVIT, SigmaT: 30e-6}
	bad := []CascadeSpec{
		{Flows: 1, Hops: []CascadeHop{{}}},
		{Flows: 8, Hops: make([]CascadeHop, maxCascadeHops+1)},
		{Flows: 8, Hops: []CascadeHop{{Policy: CascadeVIT}}},
		{Flows: 8, Hops: []CascadeHop{{SigmaT: 1e-6}}},
		{Flows: 8, Hops: []CascadeHop{{Policy: CascadeMix, SigmaT: 1e-6}}},
		{Flows: 8, Hops: []CascadeHop{{Policy: CascadePolicy(99)}}},
	}
	for i, spec := range bad {
		if _, err := sys.NewCascade(spec); err == nil {
			t.Errorf("spec %d (%+v) should fail validation", i, spec)
		}
	}
	good := []CascadeSpec{
		{Flows: 2}, // unpadded passthrough
		{Flows: 8, Hops: []CascadeHop{{}, vit, {Policy: CascadeMix}}},
	}
	for i, spec := range good {
		if _, err := sys.NewCascade(spec); err != nil {
			t.Errorf("spec %d should validate: %v", i, err)
		}
	}
}

// A route is a pull-driven pipeline reusing every per-hop buffer: once
// warmed past the gateway queues' growth, pulling packets through the
// whole chain — payload source, three re-padding stages (CIT, mix, VIT),
// the exit router path, and the entry recorder — allocates nothing.
func TestCascadeRouteAllocFree(t *testing.T) {
	cfg := DefaultLabConfig()
	cfg.Hops = []HopSpec{{CapacityBps: 100e6, PacketBytes: 200, Util: traffic.Constant(0.2)}}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := CascadeSpec{
		Hops: []CascadeHop{
			{},
			{Policy: CascadeMix},
			{Policy: CascadeVIT, SigmaT: 30e-6},
		},
		Flows: 2,
	}
	route, err := sys.buildRoute(spec, 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	// The entry recorder counts into a row spanning the whole pull (about
	// 100 s at the 10 ms timer), as the correlator attaches one.
	route.Entry.Row, route.Entry.End = make([]float64, 1000), 1000
	for i := 0; i < 6000; i++ {
		route.Exit.Next()
	}
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < 200; i++ {
			route.Exit.Next()
		}
	})
	if avg > 0 {
		t.Errorf("steady-state route pull allocates %v times per 200 packets", avg)
	}
	var counted float64
	for _, c := range route.Entry.Row {
		counted += c
	}
	if counted == 0 {
		t.Error("the entry recorder counted no arrival")
	}
}

// The system-level network path and tap imperfections must form the
// cascade's exit observation chain (the layering every protocol shares),
// not be silently ignored.
func TestCascadeHonorsExitObservationChain(t *testing.T) {
	cfg := DefaultLabConfig()
	cfg.Hops = []HopSpec{{
		CapacityBps: 100e6,
		PacketBytes: 200,
		Util:        traffic.Constant(0.2),
	}}
	cfg.TapImpair = &netem.Impairment{LossProb: 0.05}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attack := CascadeCorrConfig{Duration: 20}
	netRes, err := runSpec(sys, CascadeCorrelationSpec{Cascade: twoHopSpec(), Corr: attack})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	cleanRes, err := runSpec(clean, CascadeCorrelationSpec{Cascade: twoHopSpec(), Corr: attack})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(netRes.Cascade, cleanRes.Cascade) {
		t.Error("network path and tap loss left the cascade observations unchanged")
	}
}

// Flow classes stripe over the equal class shares exactly like
// population users.
func TestCascadeClassMixStriping(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := CascadeSpec{Flows: 40, Hops: []CascadeHop{{}}}
	eng, err := sys.NewCascade(spec)
	if err != nil {
		t.Fatal(err)
	}
	cum := sys.classCum()
	counts := [2]int{}
	for f := 0; f < spec.Flows; f++ {
		route, err := eng.Route(f)
		if err != nil {
			t.Fatal(err)
		}
		if route.Class != classOf(f, spec.Flows, cum) {
			t.Fatalf("flow %d class disagrees with striping", f)
		}
		counts[route.Class]++
	}
	if counts[0] != 20 || counts[1] != 20 {
		t.Errorf("equal shares over 40 flows gave %v, want [20 20]", counts)
	}
}
