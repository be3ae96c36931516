package core

import (
	"reflect"
	"runtime"
	"testing"

	"linkpad/internal/adversary"
	"linkpad/internal/analytic"
	"linkpad/internal/netem"
	"linkpad/internal/population"
	"linkpad/internal/traffic"
)

// Population results must be byte-identical at any worker width,
// mirroring TestRunAttackWorkerInvariance: users are the unit of
// parallelism and every user's streams derive from (seed, class,
// userID) alone.
func TestRunDisclosureWorkerInvariance(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := PopulationSpec{Users: 24, Recipients: 40, CoverRate: 0.5}
	run := func(workers int) *population.DisclosureResult {
		res, err := runSpecAt(sys, DisclosureSpec{Population: spec, Disclosure: population.DisclosureConfig{
			MaxRounds: 800,
		}}, workers)
		if err != nil {
			t.Fatal(err)
		}
		return res.Disclosure
	}
	ref := run(1)
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
		got := run(w)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: disclosure result differs\n got %+v\nwant %+v", w, got, ref)
		}
	}
}

func TestRunFlowCorrelationWorkerInvariance(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := PopulationSpec{Users: 8, Recipients: 40}
	cfg := FlowCorrConfig{
		Duration:     20,
		TrainWindows: 12,
		Features:     []analytic.Feature{analytic.FeatureVariance},
	}
	run := func(workers int) *adversary.Correlation {
		res, err := runSpecAt(sys, FlowCorrelationSpec{Population: spec, Corr: cfg}, workers)
		if err != nil {
			t.Fatal(err)
		}
		return res.FlowCorr
	}
	ref := run(1)
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
		got := run(w)
		if *got != *ref {
			t.Fatalf("workers=%d: flow result %+v differs from reference %+v", w, got, ref)
		}
	}
}

// The paper's central claim carries to the population: CIT padding
// erases the throughput fingerprint (matching collapses toward the
// class anonymity set) while the unpadded link loses every flow — unless
// users churn.
func TestFlowCorrelationPaddingProtects(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := PopulationSpec{Users: 12, Recipients: 40}
	out, err := runSpec(sys, FlowCorrelationSpec{Population: spec, Corr: FlowCorrConfig{Duration: 30, Raw: true}})
	if err != nil {
		t.Fatal(err)
	}
	raw := out.FlowCorr
	if raw.Accuracy != 1 || raw.MeanCorrTrue < 0.99 {
		t.Errorf("unpadded flows should be fully correlated: %+v", raw)
	}
	out, err = runSpec(sys, FlowCorrelationSpec{Population: spec, Corr: FlowCorrConfig{
		Duration:     30,
		TrainWindows: 20,
		Features:     []analytic.Feature{analytic.FeatureVariance},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cit := out.FlowCorr
	if cit.Accuracy > 0.5 {
		t.Errorf("CIT padding should break per-flow matching, accuracy %v", cit.Accuracy)
	}
	if cit.MeanCorrTrue > 0.2 {
		t.Errorf("CIT padding should erase the throughput fingerprint, correlation %v", cit.MeanCorrTrue)
	}
	if cit.ClassAccuracy < 0.7 {
		t.Errorf("the variance leak should still identify the class under CIT, class accuracy %v", cit.ClassAccuracy)
	}

	// Churn reveals presence: an offline user's padded link goes dark
	// (GateStream), and each user churns independently, so the on/off
	// pattern alone is a per-user throughput fingerprint that CIT padding
	// cannot erase.
	churned := PopulationSpec{Users: 24, Recipients: 40, Churn: &ChurnSpec{MeanOn: 2, MeanOff: 2}}
	out, err = runSpec(sys, FlowCorrelationSpec{Population: churned, Corr: FlowCorrConfig{Duration: 60}})
	if err != nil {
		t.Fatal(err)
	}
	if churn := out.FlowCorr; churn.Accuracy < 0.9 {
		t.Errorf("churn should expose every padded flow, accuracy %v", churn.Accuracy)
	}
}

func TestPopulationSpecValidation(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := []PopulationSpec{
		{Users: 1, Recipients: 40},
		{Users: 8, Recipients: 2*popContacts - 1},
		{Users: 8, Recipients: 40, CoverRate: -1},
		{Users: 8, Recipients: 40, CoverRate: 1, CoverToPPS: 100},
		// The init pass builds no user, so what a user build would have
		// rejected must be rejected here: churn periods and the dummy
		// policy.
		{Users: 8, Recipients: 40, Churn: &ChurnSpec{MeanOn: 0, MeanOff: 1}},
		{Users: 8, Recipients: 40, Churn: &ChurnSpec{MeanOn: 1, MeanOff: -1}},
		{Users: 8, Recipients: 40, CoverRate: 1, Dummies: population.DummyPolicy(99)},
	}
	for i, spec := range bad {
		if _, err := sys.NewPopulation(spec); err == nil {
			t.Errorf("spec %d (%+v) should fail validation", i, spec)
		}
	}
	if _, err := sys.NewPopulation(PopulationSpec{Users: 8, Recipients: 40}); err != nil {
		t.Errorf("default spec should validate: %v", err)
	}
}

// Class striping must split the users into equal class shares
// deterministically.
func TestPopulationClassMix(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := PopulationSpec{Users: 40, Recipients: 40}
	cum := sys.classCum()
	counts := [2]int{}
	for u := 0; u < spec.Users; u++ {
		counts[classOf(u, spec.Users, cum)]++
	}
	if counts[0] != 20 || counts[1] != 20 {
		t.Errorf("equal shares over 40 users gave %v, want [20 20]", counts)
	}
	eng, err := sys.NewPopulation(spec)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < spec.Users; u++ {
		if eng.Class(u) != classOf(u, spec.Users, cum) {
			t.Fatalf("engine class of user %d disagrees with striping", u)
		}
	}
}

// A configured network path and tap imperfections must flow into the
// population links (the same observation chain every protocol shares),
// not be silently ignored.
func TestFlowCorrelationHonorsNetworkPath(t *testing.T) {
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
	spec := PopulationSpec{Users: 6, Recipients: 40}
	netRes, err := runSpec(sys, FlowCorrelationSpec{Population: spec, Corr: FlowCorrConfig{Duration: 20}})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	cleanRes, err := runSpec(clean, FlowCorrelationSpec{Population: spec, Corr: FlowCorrConfig{Duration: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if *netRes.FlowCorr == *cleanRes.FlowCorr {
		t.Error("network path and tap loss left the flow observations unchanged")
	}
}

// TestPopulationFrontierMatchesBuild: for every user, the init pass's
// Frontier is bit for bit what the built user's merged sources yield
// first — first arrival, origin and summed rate — across the three
// payload models, the three cover settings and churn on and off.
func TestPopulationFrontierMatchesBuild(t *testing.T) {
	covers := []struct {
		name string
		spec PopulationSpec
	}{
		{"none", PopulationSpec{}},
		{"rate", PopulationSpec{CoverRate: 0.7}},
		{"to-pps", PopulationSpec{CoverToPPS: 60}},
	}
	for _, payload := range []PayloadModel{PayloadPoisson, PayloadCBR, PayloadOnOff} {
		cfg := DefaultLabConfig()
		cfg.Payload = payload
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, cv := range covers {
			for _, churn := range []*ChurnSpec{nil, {MeanOn: 2, MeanOff: 1}} {
				spec := cv.spec
				spec.Users, spec.Recipients, spec.Churn = 2000, 400, churn
				if err := sys.validatePopulation(spec); err != nil {
					t.Fatal(err)
				}
				b, err := sys.newPopBuilder(spec)
				if err != nil {
					t.Fatal(err)
				}
				covered := 0
				for u := 0; u < spec.Users; u++ {
					f, err := b.Frontier(u)
					if err != nil {
						t.Fatal(err)
					}
					usr, err := b.Build(u)
					if err != nil {
						t.Fatal(err)
					}
					if (usr.Presence != nil) != (churn != nil) {
						t.Fatalf("%v/%s: user %d presence %v with churn %v", payload, cv.name, u, usr.Presence, churn)
					}
					merge := traffic.NewPair(usr.Messages, usr.Cover)
					gap, cover := merge.NextFrom()
					want := population.Frontier{T: gap, Cover: cover, Rate: merge.Rate()}
					if f != want {
						t.Fatalf("%v/%s/churn=%t: user %d Frontier %+v, built user yields %+v",
							payload, cv.name, churn != nil, u, f, want)
					}
					if f.Cover {
						covered++
					}
				}
				if cv.name != "none" && covered == 0 {
					t.Errorf("%v/%s: no user starts on a cover arrival; the cover branch is untested", payload, cv.name)
				}
			}
		}
	}
}

// TestPopulationFrontierAllocs: with the Poisson payload the init pass's
// per-user Frontier allocates nothing, cover included.
func TestPopulationFrontierAllocs(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := PopulationSpec{Users: 1000, Recipients: 400, CoverRate: 1}
	b, err := sys.newPopBuilder(spec)
	if err != nil {
		t.Fatal(err)
	}
	u := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := b.Frontier(u % spec.Users); err != nil {
			t.Fatal(err)
		}
		u++
	})
	if allocs != 0 {
		t.Fatalf("Frontier allocates %v times per call, want 0", allocs)
	}
}

// TestWarmUserFootprint pins what warming one user costs: 10,000 users
// of a NewPopulation engine are warmed through Engine.Class, and the
// heap bytes and objects allocated per user must stay within a warm
// user's budget — its arena slot (merge cursor with both sources, and
// the recipient stream) and its contact set, chunk growth included. A
// warm user is no heap object of its own: the arena allocates a chunk
// per 16 slots. The allocation counters are deterministic for a given
// code path, so the bounds are exact, not statistical; each Build runs
// on this goroutine.
func TestWarmUserFootprint(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name          string
		cover         float64
		bytes, allocs uint64
	}{
		{"cover", 1, 240, 0},
		{"no-cover", 0, 224, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			const users = 10_000
			e, err := sys.NewPopulation(PopulationSpec{Users: users, Recipients: 400, CoverRate: c.cover})
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for u := 0; u < users; u++ {
				e.Class(u)
			}
			runtime.ReadMemStats(&after)
			if w := e.WarmUsers(); w != users {
				t.Fatalf("%d users warm, want %d", w, users)
			}
			bytes := (after.TotalAlloc - before.TotalAlloc) / users
			allocs := (after.Mallocs - before.Mallocs) / users
			t.Logf("a warm user costs %d B in %d objects", bytes, allocs)
			if bytes > c.bytes || allocs > c.allocs {
				t.Errorf("a warm user costs %d B in %d objects, want at most %d B in %d",
					bytes, allocs, c.bytes, c.allocs)
			}
		})
	}
}

// BenchmarkWarmUp times warming users one at a time, as a refill warms
// the users due in its slab: every user of a 1e5-user NewPopulation
// engine with cover is warmed through Engine.Class. It reports the time,
// heap bytes and heap objects per warmed user; the engine's init pass
// is not timed.
func BenchmarkWarmUp(b *testing.B) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		b.Fatal(err)
	}
	spec := PopulationSpec{Users: 100_000, Recipients: 10_000, CoverRate: 1}
	var bytes, objects uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := sys.NewPopulation(spec)
		if err != nil {
			b.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()
		for u := 0; u < spec.Users; u++ {
			e.Class(u)
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		bytes += after.TotalAlloc - before.TotalAlloc
		objects += after.Mallocs - before.Mallocs
	}
	users := float64(b.N * spec.Users)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/users, "ns/user")
	b.ReportMetric(float64(bytes)/users, "B/user")
	b.ReportMetric(float64(objects)/users, "allocs/user")
}

// BenchmarkNewPopulation times the production init pass: NewPopulation
// over 1e5 users with cover at the payload rate.
func BenchmarkNewPopulation(b *testing.B) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		b.Fatal(err)
	}
	spec := PopulationSpec{Users: 100_000, Recipients: 10_000, CoverRate: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sys.NewPopulation(spec); err != nil {
			b.Fatal(err)
		}
	}
}
