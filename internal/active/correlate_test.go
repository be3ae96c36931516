package active

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"linkpad/internal/adversary"
	"linkpad/internal/analytic"
	"linkpad/internal/cascade"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// sourceStream adapts a traffic.Source to the absolute-time stream
// contract, mimicking an unpadded link.
type sourceStream struct {
	src traffic.Source
	now float64
}

func (s *sourceStream) Next() float64 {
	s.now += s.src.Next()
	return s.now
}

// chaffEngine builds a synthetic unpadded scenario: each flow is Poisson
// payload superposed with keyed chaff (or plain payload when amp == 0),
// entirely inside the test — no core wiring.
func chaffEngine(t *testing.T, flows int, amp float64) *Engine {
	t.Helper()
	const chips, period = 32, 0.5
	decoys := make([]*Key, 12)
	for i := range decoys {
		decoys[i] = testKey(t, chips, period, uint64(1000+i))
	}
	build := func(f int) (*Flow, error) {
		key := testKey(t, chips, period, uint64(10+f))
		payload, err := traffic.NewPoisson(30, xrand.New(uint64(500+f)))
		if err != nil {
			return nil, err
		}
		var src traffic.Source = payload
		var inject func() InjectStats
		if amp > 0 {
			chaff, err := NewChaffSource(key, amp, xrand.New(uint64(900+f)))
			if err != nil {
				return nil, err
			}
			src, err = traffic.NewSuperpose(payload, chaff)
			if err != nil {
				return nil, err
			}
			inject = func() InjectStats { return chaff.Stats() }
		}
		return &Flow{Key: key, Exit: &sourceStream{src: src}, Inject: inject}, nil
	}
	e, err := NewEngine(flows, 0, ModeChaff, chips, period, decoys, build)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// A strong chaff watermark on an unpadded stream must be detected for
// every flow, matched to the right flow, and leave essentially no
// anonymity; removing the watermark must drop detection to the decoy
// false-positive floor.
func TestDetectSyntheticChaff(t *testing.T) {
	cfg := Config{Duration: 40}
	res, err := Detect(chaffEngine(t, 6, 30), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots != 80 || res.Flows != 6 || res.Mode != "chaff" {
		t.Fatalf("echo fields wrong: %+v", res)
	}
	if res.DetectionRate != 1 {
		t.Fatalf("watermarked flows: detection %v, want 1 (z %v)", res.DetectionRate, res.ZTrue)
	}
	if res.MatchAccuracy != 1 || res.MeanRank != 1 {
		t.Fatalf("matching: acc %v rank %v, want perfect", res.MatchAccuracy, res.MeanRank)
	}
	if res.DegreeOfAnonymity > 0.3 {
		t.Fatalf("anonymity %v, want near 0 for an unpadded watermark", res.DegreeOfAnonymity)
	}
	if res.MeanZ < 5 {
		t.Fatalf("mean z %v, want strong", res.MeanZ)
	}
	// Injection accounting: chaff at 30 pps × duty cycle, counted over
	// the generated timeline.
	if res.InjectedPPS < 5 || res.InjectedPPS > 30 {
		t.Fatalf("injected pps %v out of range", res.InjectedPPS)
	}
	if res.MeanAddedDelay != 0 {
		t.Fatalf("chaff mode must not report added delay, got %v", res.MeanAddedDelay)
	}
	// Unpadded: route rate ≈ payload + injected chaff.
	if res.RoutePPS < 30 || res.RoutePPS > 50 {
		t.Fatalf("route pps %v, want ≈ payload+chaff", res.RoutePPS)
	}

	null, err := Detect(chaffEngine(t, 6, 1e-9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if null.DetectionRate > 0.2 {
		t.Fatalf("unwatermarked flows: detection %v, want ≈ 0 (z %v)", null.DetectionRate, null.ZTrue)
	}
	if null.DegreeOfAnonymity < 0.5 {
		t.Fatalf("unwatermarked anonymity %v, want high", null.DegreeOfAnonymity)
	}
}

// Detection must be byte-identical at any worker width: flows are the
// unit of parallelism and every reduction runs in flow order.
func TestDetectWorkerInvariance(t *testing.T) {
	run := func(workers int) *Result {
		res, err := Detect(chaffEngine(t, 5, 25), Config{Duration: 24, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
		if got := run(w); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: result differs\n got %+v\nwant %+v", w, got, ref)
		}
	}
}

func TestDetectValidation(t *testing.T) {
	e := chaffEngine(t, 4, 20)
	if _, err := Detect(nil, Config{Duration: 20}); err == nil {
		t.Error("nil engine should fail")
	}
	if _, err := Detect(e, Config{}); err == nil {
		t.Error("zero duration should fail")
	}
	if _, err := Detect(e, Config{Duration: 1}); err == nil {
		t.Error("too few slots should fail")
	}
	for _, cfg := range []Config{
		{Duration: 20, FeatureWindow: 1},
		{Duration: 20, Extractors: []adversary.Extractor{{Feature: analytic.FeatureMean}}},
	} {
		if _, err := Detect(e, cfg); err == nil || !strings.HasPrefix(err.Error(), "active: ") {
			t.Errorf("tiny feature window or unpaired extractor: got %v, want an active error", err)
		}
	}

	// A flow reporting the wrong hop count is a wiring bug, not data.
	bad, err := NewEngine(4, 2, ModeChaff, e.chips, e.period, e.decoys, func(f int) (*Flow, error) {
		fl, err := e.build(f)
		if err != nil {
			return nil, err
		}
		fl.Hops = []cascade.HopProbe{func() cascade.HopStats { return cascade.HopStats{Emitted: 1000} }}
		return fl, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Detect(bad, Config{Duration: 20}); err == nil || !strings.Contains(err.Error(), "hops") {
		t.Errorf("hop-count mismatch not rejected: %v", err)
	}
}

func TestSlotStats(t *testing.T) {
	// Two slots of width 1: slot 0 holds {0.1, 0.3, 0.7}, slot 1 holds
	// {1.5, 1.6}; a stray time past the window is ignored.
	times := []float64{0.1, 0.3, 0.7, 1.5, 1.6, 2.4}
	counts := make([]float64, 2)
	vars := make([]float64, 2)
	cents := make([]float64, 2)
	slotStats(times, 0, 1, 2, counts, vars, cents)
	if counts[0] != 3 || counts[1] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	// Slot 0 PIATs within the slot: {0.2, 0.4} → sample variance 0.02.
	if math.Abs(vars[0]-0.02) > 1e-12 {
		t.Fatalf("vars[0] = %v, want 0.02", vars[0])
	}
	// Slot 1 has a single within-slot PIAT → variance undefined → 0.
	if vars[1] != 0 {
		t.Fatalf("vars[1] = %v, want 0", vars[1])
	}
	// Centroids: mean in-slot position − 0.5.
	want0 := (0.1+0.3+0.7)/3 - 0.5
	want1 := (0.5+0.6)/2 - 0.5
	if math.Abs(cents[0]-want0) > 1e-12 || math.Abs(cents[1]-want1) > 1e-12 {
		t.Fatalf("cents = %v, want [%v %v]", cents, want0, want1)
	}
}

// The delay watermark must be detectable on an unpadded stream through
// the centroid/count channels.
func TestDetectSyntheticDelay(t *testing.T) {
	const chips, period = 32, 0.5
	decoys := make([]*Key, 12)
	for i := range decoys {
		decoys[i] = testKey(t, chips, period, uint64(2000+i))
	}
	build := func(f int) (*Flow, error) {
		key := testKey(t, chips, period, uint64(50+f))
		payload, err := traffic.NewPoisson(40, xrand.New(uint64(700+f)))
		if err != nil {
			return nil, err
		}
		ds, err := NewDelaySource(payload, key, 0.15)
		if err != nil {
			return nil, err
		}
		return &Flow{
			Key:    key,
			Exit:   &sourceStream{src: ds},
			Inject: func() InjectStats { return ds.Stats() },
		}, nil
	}
	e, err := NewEngine(5, 0, ModeDelay, chips, period, decoys, build)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Detect(e, Config{Duration: 60})
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectionRate < 0.8 {
		t.Fatalf("delay watermark detection %v, want ≥ 0.8 (z %v)", res.DetectionRate, res.ZTrue)
	}
	if res.MeanAddedDelay <= 0 || res.MeanAddedDelay > 0.15 {
		t.Fatalf("mean added delay %v, want in (0, amplitude]", res.MeanAddedDelay)
	}
	if res.InjectedPPS != 0 {
		t.Fatalf("delay mode must not report chaff, got %v", res.InjectedPPS)
	}
}

// The detection hot path's allocation discipline: the per-slot channel
// reduction and the calibrate-and-score loop — the work repeated per
// flow and per (key, exit) pair — run on preallocated buffers and
// allocate nothing.
func TestDetectAllocDiscipline(t *testing.T) {
	const slots, chips, period = 90, 32, 0.5
	key := testKey(t, chips, period, 42)
	rng := xrand.New(7)
	times := make([]float64, 0, 4096)
	now := 0.0
	for now < slots*period {
		now += rng.Exp(1.0 / 30)
		times = append(times, now)
	}
	counts := make([]float64, slots)
	vars := make([]float64, slots)
	cents := make([]float64, slots)
	chipVec := make([]float64, slots)
	if n := testing.AllocsPerRun(20, func() {
		slotStats(times, 0, period, slots, counts, vars, cents)
	}); n > 0 {
		t.Errorf("slotStats allocates %v per reduction, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		fillChips(chipVec, key, 3)
		if _, err := adversary.Pearson(chipVec, counts); err != nil {
			t.Fatal(err)
		}
		meanStd(counts)
	}); n > 0 {
		t.Errorf("scoring loop allocates %v per pair, want 0", n)
	}
}
