package cascade

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"linkpad/internal/adversary"
	"linkpad/internal/analytic"
	"linkpad/internal/netem"
	"linkpad/internal/obs"
)

// patternTimes emits a per-second event schedule over [0, bins): bin b
// carries count(b) events evenly spaced, plus a sentinel past the end so
// the exit pull loop terminates.
func patternTimes(bins int, count func(b int) int) []float64 {
	var ts []float64
	for b := 0; b < bins; b++ {
		c := count(b)
		for k := 0; k < c; k++ {
			ts = append(ts, float64(b)+(float64(k)+0.5)/float64(c))
		}
	}
	return append(ts, float64(bins)+1)
}

// corrCfg is the attack's configuration over duration seconds at the
// default feature window, with no classifiers.
func corrCfg(duration float64) adversary.CorrConfig {
	return adversary.CorrConfig{Duration: duration, FeatureWindow: 200}
}

// tapped is an identity route's exit: every pulled time also reaches the
// entry recorder, as a zero-hop route's entry tap does.
type tapped struct {
	netem.TimeStream
	rec *Recorder
}

func (s tapped) Next() float64 {
	t := s.TimeStream.Next()
	s.rec.Record(t)
	return t
}

// syntheticEngine wires identity routes: flow f's entry and exit replay
// the same schedule, produced by times(f).
func syntheticEngine(t *testing.T, flows, hops int, times func(f int) []float64, probes func(f int) []HopProbe) *Engine {
	t.Helper()
	e, err := NewEngine(flows, hops, func(f int) (*Route, error) {
		rec := &Recorder{}
		var ps []HopProbe
		if probes != nil {
			ps = probes(f)
		}
		return &Route{Exit: tapped{netem.NewSliceStream(times(f)), rec}, Entry: rec, Hops: ps}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// Identity routes with flow-unique rate patterns: the throughput
// fingerprint alone matches every flow, ranks the true flow first, and
// leaves essentially no anonymity.
func TestCorrelateIdentityRoutes(t *testing.T) {
	const flows, bins = 6, 12
	e := syntheticEngine(t, flows, 0, func(f int) []float64 {
		return patternTimes(bins, func(b int) int { return 3 + (b+2*f)%7 })
	}, nil)
	res, err := Correlate(context.Background(), e, corrCfg(bins))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy != 1 || res.MeanRank != 1 {
		t.Errorf("identity routes should match perfectly: %+v", res)
	}
	if res.MeanCorrTrue < 0.999 {
		t.Errorf("true-pair correlation %v, want ~1", res.MeanCorrTrue)
	}
	if res.DegreeOfAnonymity > 0.2 {
		t.Errorf("anonymity %v, want ~0", res.DegreeOfAnonymity)
	}
	if res.Hops != 0 || len(res.HopPPS) != 0 {
		t.Errorf("zero-hop route reported hops: %+v", res)
	}
	// Zero-hop RoutePPS is the exit stream's own rate.
	var want float64
	for b := 0; b < bins; b++ {
		want += float64(3 + b%7)
	}
	want /= bins
	if math.Abs(res.RoutePPS-want) > 0.5 {
		t.Errorf("raw route pps %v, want ~%v", res.RoutePPS, want)
	}
}

// The entry and exit fingerprints share one window: with a duration just
// below an integer, the last rate window still ends at the integer, but
// an arrival in (Duration, bins) is past the exit pull and must not
// reach the entry row either, or identity routes would correlate below 1.
func TestCorrelateEntryWindow(t *testing.T) {
	const flows, bins = 3, 3
	const duration = bins - 1e-10
	e := syntheticEngine(t, flows, 0, func(f int) []float64 {
		ts := patternTimes(bins, func(b int) int { return 1 + (b+f)%3 + b })
		// One arrival in the gap, ahead of the sentinel.
		return append(ts[:len(ts)-1], duration+5e-11, ts[len(ts)-1])
	}, nil)
	res, err := Correlate(context.Background(), e, corrCfg(duration))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanCorrTrue < 1-1e-12 || res.Accuracy != 1 {
		t.Errorf("identity routes must correlate at 1 and match: corr %v, accuracy %v", res.MeanCorrTrue, res.Accuracy)
	}
}

// Flat routes carry no fingerprint: every score ties, the match
// posterior is uniform, and the degree of anonymity is 1.
func TestCorrelateFlatRoutes(t *testing.T) {
	const flows, bins = 6, 10
	e := syntheticEngine(t, flows, 0, func(f int) []float64 {
		return patternTimes(bins, func(int) int { return 5 })
	}, nil)
	res, err := Correlate(context.Background(), e, corrCfg(bins))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanCorrTrue != 0 {
		t.Errorf("degenerate fingerprints should correlate at 0, got %v", res.MeanCorrTrue)
	}
	if res.DegreeOfAnonymity < 0.999 {
		t.Errorf("anonymity %v, want 1 (uniform posterior)", res.DegreeOfAnonymity)
	}
}

// The per-hop overhead accounting aggregates the probes in flow order.
func TestCorrelateHopAccounting(t *testing.T) {
	const flows, bins = 4, 10
	mk := func(policy string, emitted, dummies uint64) HopProbe {
		return func() HopStats { return HopStats{Policy: policy, Emitted: emitted, Dummies: dummies} }
	}
	e := syntheticEngine(t, flows, 2, func(f int) []float64 {
		return patternTimes(bins, func(b int) int { return 3 + (b+f)%5 })
	}, func(f int) []HopProbe {
		return []HopProbe{mk("CIT", 1000, 750), mk("MIX", 1000, 0)}
	})
	res, err := Correlate(context.Background(), e, corrCfg(bins))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HopPPS) != 2 || res.HopPPS[0] != 100 || res.HopPPS[1] != 100 {
		t.Errorf("hop pps = %v, want [100 100]", res.HopPPS)
	}
	if res.HopDummyFrac[0] != 0.75 || res.HopDummyFrac[1] != 0 {
		t.Errorf("hop dummy frac = %v, want [0.75 0]", res.HopDummyFrac)
	}
	if res.RoutePPS != 200 || res.DummyFrac != 0.375 {
		t.Errorf("route pps %v dummy %v, want 200 / 0.375", res.RoutePPS, res.DummyFrac)
	}

	// A route reporting the wrong hop count is a wiring bug, not data.
	bad := syntheticEngine(t, flows, 2, func(f int) []float64 {
		return patternTimes(bins, func(b int) int { return 3 + (b+f)%5 })
	}, func(f int) []HopProbe {
		return []HopProbe{mk("CIT", 1000, 750)}
	})
	if _, err := Correlate(context.Background(), bad, corrCfg(bins)); err == nil || !strings.Contains(err.Error(), "hops") {
		t.Errorf("hop-count mismatch not rejected: %v", err)
	}
}

func TestCorrelateValidation(t *testing.T) {
	e := syntheticEngine(t, 2, 0, func(f int) []float64 {
		return patternTimes(4, func(int) int { return 3 })
	}, nil)
	if _, err := Correlate(context.Background(), nil, corrCfg(10)); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := Correlate(context.Background(), e, corrCfg(0)); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := Correlate(context.Background(), e, corrCfg(1.5)); err == nil {
		t.Error("single rate window accepted")
	}
	for _, cfg := range []adversary.CorrConfig{
		{Duration: 4},
		{Duration: 4, FeatureWindow: 1},
		{Duration: 4, FeatureWindow: 200, Extractors: []adversary.Extractor{{Feature: analytic.FeatureMean}}},
	} {
		if _, err := Correlate(context.Background(), e, cfg); err == nil || !strings.HasPrefix(err.Error(), "cascade: ") {
			t.Errorf("zero or tiny feature window or unpaired extractor: got %v, want a cascade error", err)
		}
	}
	// Routes without an entry recorder cannot be correlated.
	blind, err := NewEngine(2, 0, func(f int) (*Route, error) {
		return &Route{Exit: netem.NewSliceStream(patternTimes(4, func(int) int { return 3 }))}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Correlate(context.Background(), blind, corrCfg(4)); err == nil {
		t.Error("entry-less route accepted")
	}
}

// countingStream counts every pulled time into a telemetry shard, as a
// chain's padding stage counts its emissions.
type countingStream struct {
	netem.TimeStream
	sh *obs.Shard
}

func (s countingStream) Next() float64 {
	s.sh.Inc(obs.GatewayPayload)
	return s.TimeStream.Next()
}

// Pull.Exit is the one exit pull: it keeps the times in (from, to],
// publishes the route's shard (including the one departure pulled past
// to), reads every hop probe and records the flow's window.
func TestPullExit(t *testing.T) {
	obs.SetEnabled(true)
	obs.Reset()
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.Reset()
	})
	sh := obs.NewShard()
	r := &Route{
		Exit:  countingStream{netem.NewSliceStream([]float64{0.5, 1, 1.5, 2, 2.5, 3}), sh},
		Hops:  []HopProbe{func() HopStats { return HopStats{Policy: "CIT", Emitted: 7, Dummies: 2} }},
		Probe: sh,
	}
	p := NewPull(3, 2)
	got := p.Exit(1, 2, r, 0.5, 2)
	if want := []float64{1, 1.5, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("exit times %v, want %v", got, want)
	}
	if n := obs.Snapshot()[obs.GatewayPayload]; n != 5 {
		t.Errorf("published %d pulls, want 5 (the shard must be flushed after the pull)", n)
	}
	want := Observed{Start: 0.5, End: 2, Exits: 3, Hops: []HopStats{{Policy: "CIT", Emitted: 7, Dummies: 2}}}
	if !reflect.DeepEqual(p.Flows[2], want) {
		t.Errorf("observed %+v, want %+v", p.Flows[2], want)
	}
}
