package core

import (
	"reflect"
	"runtime"
	"testing"

	"linkpad/internal/active"
	"linkpad/internal/analytic"
)

// chaffSpec is the small active scenario the determinism tests run:
// eight chaff-watermarked flows crossing the system's single padded
// link.
func chaffSpec() ActiveSpec {
	return ActiveSpec{
		Protocol:  ActiveReplica,
		Flows:     8,
		Mode:      active.ModeChaff,
		Amplitude: 20,
	}
}

// Active detection results must be byte-identical at any worker width,
// mirroring the replica/session/population/cascade invariance tests:
// flows are the unit of parallelism and every flow's key, chaff stream
// and chain element derive from (seed, class, flowID, role) streams
// alone.
func TestRunActiveDetectionWorkerInvariance(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ActiveDetectConfig{
		Duration:      20,
		FeatureWindow: 100,
		TrainWindows:  12,
		Features:      []analytic.Feature{analytic.FeatureVariance},
	}
	run := func(workers int) *active.Result {
		res, err := runSpecAt(sys, ActiveDetectionSpec{Active: chaffSpec(), Detect: cfg}, workers)
		if err != nil {
			t.Fatal(err)
		}
		return res.Active
	}
	ref := run(1)
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
		got := run(w)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: active result differs\n got %+v\nwant %+v", w, got, ref)
		}
	}
}

// The four scenario protocols of one flow index must be different
// realizations: the protocol field is part of the stream ID, so no two
// scenarios share randomness even at identical specs.
func TestActiveProtocolsDisjointRealizations(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ActiveDetectConfig{Duration: 20, TrainWindows: 2}
	spec := chaffSpec()
	replica, err := runSpec(sys, ActiveDetectionSpec{Active: spec, Detect: cfg})
	if err != nil {
		t.Fatal(err)
	}
	spec.Protocol = ActiveSession
	session, err := runSpec(sys, ActiveDetectionSpec{Active: spec, Detect: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(replica.Active.ZTrue, session.Active.ZTrue) {
		t.Fatal("replica and session scenarios produced identical z-scores: protocols share streams")
	}
}

// The unpadded anchor must leak the watermark and a deep route must
// destroy it — the tentpole's headline ordering, asserted end to end at
// the core API level (the experiment tests assert the full policy tier).
func TestActiveDetectionUnpaddedVsCascade(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ActiveDetectConfig{Duration: 30, TrainWindows: 2}
	raw := chaffSpec()
	raw.Raw = true
	out, err := runSpec(sys, ActiveDetectionSpec{Active: raw, Detect: cfg})
	if err != nil {
		t.Fatal(err)
	}
	rawRes := out.Active
	if rawRes.DetectionRate < 0.9 || rawRes.MatchAccuracy < 0.9 {
		t.Errorf("unpadded link should leak the chaff watermark: det %v match %v",
			rawRes.DetectionRate, rawRes.MatchAccuracy)
	}
	if rawRes.InjectedPPS <= 0 || rawRes.RoutePPS <= 0 {
		t.Errorf("overhead accounting empty: injected %v route %v",
			rawRes.InjectedPPS, rawRes.RoutePPS)
	}
	casc := chaffSpec()
	casc.Protocol = ActiveCascade
	casc.Hops = []CascadeHop{{}, {}}
	out, err = runSpec(sys, ActiveDetectionSpec{Active: casc, Detect: cfg})
	if err != nil {
		t.Fatal(err)
	}
	cascRes := out.Active
	if cascRes.DetectionRate > 0.2 {
		t.Errorf("two re-timing hops should destroy the watermark: det %v", cascRes.DetectionRate)
	}
	if cascRes.DegreeOfAnonymity < rawRes.DegreeOfAnonymity {
		t.Errorf("anonymity should rise with the route: raw %v cascade %v",
			rawRes.DegreeOfAnonymity, cascRes.DegreeOfAnonymity)
	}
	if cascRes.RoutePPS < 190 || cascRes.RoutePPS > 210 {
		t.Errorf("two-CIT route pps %v, want ~200", cascRes.RoutePPS)
	}
}

func TestActiveSpecValidation(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	ok := chaffSpec()
	bad := []ActiveSpec{
		{}, // no flows, no amplitude
		{Flows: 1, Mode: active.ModeChaff, Amplitude: 1},                          // one flow
		{Flows: 4, Mode: active.Mode(9), Amplitude: 1},                            // unknown mode
		{Flows: 4, Mode: active.ModeChaff},                                        // zero amplitude
		{Flows: 4, Mode: active.ModeChaff, Amplitude: 1, CoverToPPS: 100},         // cover off-protocol
		{Flows: 4, Mode: active.ModeChaff, Amplitude: 1, Hops: []CascadeHop{{}}},  // hops off-protocol
		{Flows: 4, Mode: active.ModeChaff, Amplitude: 1, Protocol: ActiveCascade}, // cascade without hops
		{Flows: 4, Mode: active.ModeChaff, Amplitude: 1, Protocol: ActiveCascade,
			Raw: true, Hops: []CascadeHop{{}}}, // raw cascade
		{Flows: 4, Mode: active.ModeChaff, Amplitude: 1, Protocol: ActiveCascade,
			CoverToPPS: 100, Hops: []CascadeHop{{}}}, // cover on a cascade
		{Flows: 4, Mode: active.ModeChaff, Amplitude: 1, Protocol: ActivePopulation,
			CoverToPPS: -1}, // negative cover
		{Flows: 4, Mode: active.ModeChaff, Amplitude: 1, Protocol: ActiveProtocol(9)}, // unknown protocol
	}
	for i, spec := range bad {
		if _, err := sys.NewActive(spec); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, spec)
		}
	}
	if _, err := sys.NewActive(ok); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
	if _, err := runSpec(sys, ActiveDetectionSpec{Active: ok, Detect: ActiveDetectConfig{Duration: 1}}); err == nil {
		t.Error("sub-slot duration should fail")
	}
	if _, err := runSpec(sys, ActiveDetectionSpec{Active: ok, Detect: ActiveDetectConfig{TrainWindows: 1}}); err == nil {
		t.Error("single training window should fail")
	}
}

// ActiveProtocol and Mode names feed table notes and Result.Mode.
func TestActiveNames(t *testing.T) {
	for p, want := range map[ActiveProtocol]string{
		ActiveReplica: "replica", ActiveSession: "session",
		ActivePopulation: "population", ActiveCascade: "cascade",
		ActiveProtocol(9): "unknown",
	} {
		if got := p.String(); got != want {
			t.Errorf("ActiveProtocol(%d).String() = %q, want %q", int(p), got, want)
		}
	}
	for m, want := range map[active.Mode]string{
		active.ModeDelay: "delay", active.ModeChaff: "chaff",
		active.Mode(9): "unknown",
	} {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}
