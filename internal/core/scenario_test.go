package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"linkpad/internal/active"
	"linkpad/internal/analytic"
	"linkpad/internal/population"
)

// scenario_test.go: the unified Build/Run API. Build must reject bad
// specs and budgets Run cannot execute eagerly; Run must honor the
// shared RunOptions — worker width is result-invariant — across the
// protocols.

func scenarioSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestBuildValidatesSpecs: Build rejects bad shapes, and every
// defaults-applied budget Run could not execute — too few windows, or a
// non-finite, too short or oversized observation duration that would
// panic in an allocation or simulate for hours — for all six kinds. A
// non-finite float anywhere in a spec is refused with an error naming
// its path (field): a NaN cover once ran as no cover at all.
func TestBuildValidatesSpecs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	sys := scenarioSystem(t)
	mean := []analytic.Feature{analytic.FeatureMean}
	attack := func(c AttackConfig) Spec { return AttackSetSpec{Attack: c, Features: mean} }
	session := func(c SessionAttackConfig) Spec { return SessionAttackSpec{Session: c} }
	pop := PopulationSpec{Users: 8, Recipients: 40}
	flow := func(d float64) Spec { return FlowCorrelationSpec{Population: pop, Corr: FlowCorrConfig{Duration: d}} }
	casc := func(d float64) Spec {
		return CascadeCorrelationSpec{Cascade: CascadeSpec{Flows: 8, Hops: []CascadeHop{{}}}, Corr: CascadeCorrConfig{Duration: d}}
	}
	watermark := func(d float64) Spec {
		return ActiveDetectionSpec{
			Active: ActiveSpec{Flows: 8, Mode: active.ModeChaff, Amplitude: 20},
			Detect: ActiveDetectConfig{Duration: d},
		}
	}
	mark := func(a ActiveSpec) Spec { return ActiveDetectionSpec{Active: a} }
	popCover := func(p PopulationSpec) Spec {
		p.Users, p.Recipients, p.Dummies = 8, 40, population.DummyUniform
		return DisclosureSpec{Population: p}
	}
	churn := func(on, off float64) Spec {
		return DisclosureSpec{Population: PopulationSpec{Users: 8, Recipients: 40, Churn: &ChurnSpec{MeanOn: on, MeanOff: off}}}
	}
	cases := []struct {
		name string
		spec Spec
		// field, when set, is the path the error must name.
		field string
	}{
		{"nil", nil, ""},
		{"attackset-no-features", AttackSetSpec{}, ""},
		{"attackset-one-train-window", attack(AttackConfig{TrainWindows: 1}), ""},
		{"attackset-negative-eval-windows", attack(AttackConfig{EvalWindows: -3}), ""},
		{"attackset-negative-window-size", attack(AttackConfig{WindowSize: -5}), ""},
		{"session-one-train-window", session(SessionAttackConfig{TrainWindows: 1}), ""},
		{"session-negative-eval-sessions", session(SessionAttackConfig{EvalSessions: -3}), ""},
		{"session-negative-window-size", session(SessionAttackConfig{WindowSize: -5}), ""},
		{"session-negative-max-windows", session(SessionAttackConfig{MaxWindows: -1}), ""},
		{"disclosure-bad-population", DisclosureSpec{
			Population: PopulationSpec{Users: 1, Recipients: 40},
		}, ""},
		{"disclosure-negative-budget", DisclosureSpec{
			Population: pop, Disclosure: population.DisclosureConfig{MaxRounds: -1},
		}, ""},
		// The width belongs to RunOptions alone.
		{"disclosure-config-width", DisclosureSpec{
			Population: pop, Disclosure: population.DisclosureConfig{Workers: 2},
		}, ""},
		{"flowcorr-bad-population", FlowCorrelationSpec{
			Population: PopulationSpec{Users: 8, Recipients: 2},
		}, ""},
		{"flowcorr-nan-duration", flow(nan), "Corr.Duration"},
		{"flowcorr-negative-duration", flow(-1), ""},
		{"flowcorr-huge-duration", flow(1e13), ""},
		{"flowcorr-one-rate-window", flow(1.5), ""},
		{"flowcorr-huge-population", FlowCorrelationSpec{Population: PopulationSpec{Users: 1 << 13, Recipients: 40}}, ""},
		{"cascade-inf-duration", casc(inf), "Corr.Duration"},
		{"cascade-huge-duration", casc(1e13), ""},
		{"active-bad-spec", ActiveDetectionSpec{
			Active: ActiveSpec{Flows: -1},
		}, ""},
		{"active-nan-duration", watermark(nan), "Detect.Duration"},
		{"active-huge-duration", watermark(1e13), ""},
		{"active-few-chip-slots", watermark(3), ""},
		{"active-inf-amplitude", mark(ActiveSpec{Flows: 8, Mode: active.ModeChaff, Amplitude: inf}), "Active.Amplitude"},
		{"active-nan-cover", mark(ActiveSpec{Protocol: ActivePopulation, Flows: 8, Mode: active.ModeChaff, Amplitude: 20, CoverToPPS: nan}), "Active.CoverToPPS"},
		{"active-inf-cover", mark(ActiveSpec{Protocol: ActivePopulation, Flows: 8, Mode: active.ModeChaff, Amplitude: 20, CoverToPPS: inf}), "Active.CoverToPPS"},
		{"population-nan-cover-rate", popCover(PopulationSpec{CoverRate: nan}), "Population.CoverRate"},
		{"population-inf-cover-rate", popCover(PopulationSpec{CoverRate: inf}), "Population.CoverRate"},
		{"population-nan-cover-to-pps", popCover(PopulationSpec{CoverToPPS: nan}), "Population.CoverToPPS"},
		{"population-inf-cover-to-pps", popCover(PopulationSpec{CoverToPPS: inf}), "Population.CoverToPPS"},
		{"churn-inf-mean-on", churn(inf, 1), "Population.Churn.MeanOn"},
		{"churn-inf-mean-off", churn(1, inf), "Population.Churn.MeanOff"},
		{"cascade-inf-vit-sigma", CascadeCorrelationSpec{
			Cascade: CascadeSpec{Flows: 8, Hops: []CascadeHop{{Policy: CascadeVIT, SigmaT: inf}}},
		}, "Cascade.Hops[0].SigmaT"},
		{"attackset-nan-bin-width", attack(AttackConfig{EntropyBinWidth: nan}), "Attack.EntropyBinWidth"},
		{"attackset-inf-bin-width", attack(AttackConfig{EntropyBinWidth: inf}), "Attack.EntropyBinWidth"},
		{"attackset-neg-inf-bin-width", attack(AttackConfig{EntropyBinWidth: -inf}), "Attack.EntropyBinWidth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := sys.Build(tc.spec)
			if err == nil {
				t.Fatalf("Build accepted invalid spec %+v", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %q does not name %s", err, tc.field)
			}
		})
	}
}

// TestEnginesRejectNonFinite: the engine constructors the benchmark
// drives directly refuse a non-finite spec float the way Build does,
// naming its field.
func TestEnginesRejectNonFinite(t *testing.T) {
	sys := scenarioSystem(t)
	inf := math.Inf(1)
	_, errActive := sys.NewActive(ActiveSpec{Flows: 8, Mode: active.ModeChaff, Amplitude: inf})
	_, errPop := sys.NewPopulation(PopulationSpec{Users: 8, Recipients: 40, CoverRate: math.NaN(), Dummies: population.DummyUniform})
	_, errCascade := sys.NewCascade(CascadeSpec{Flows: 8, Hops: []CascadeHop{{Policy: CascadeVIT, SigmaT: inf}}})
	for _, c := range []struct {
		err   error
		field string
	}{{errActive, "Amplitude"}, {errPop, "CoverRate"}, {errCascade, "Hops[0].SigmaT"}} {
		if c.err == nil {
			t.Errorf("%s: accepted", c.field)
		} else if !strings.Contains(c.err.Error(), c.field) {
			t.Errorf("error %q does not name %s", c.err, c.field)
		}
	}
}

// TestScenarioWorkerOption: RunOptions.Workers, the one width of a
// scenario run, never changes the result.
func TestScenarioWorkerOption(t *testing.T) {
	sys := scenarioSystem(t)
	sc, err := sys.Build(DisclosureSpec{
		Population: PopulationSpec{Users: 24, Recipients: 40, CoverRate: 0.5},
		Disclosure: population.DisclosureConfig{MaxRounds: 400},
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *population.DisclosureResult {
		res, err := sc.Run(context.Background(), RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Disclosure == nil {
			t.Fatal("disclosure scenario returned no Disclosure result")
		}
		return res.Disclosure
	}
	ref := run(1)
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		if got := run(w); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: result differs from workers=1", w)
		}
	}
}

// cancelAfter is a context that reports cancellation from its n+1-th
// Err call on: a run checks its context between steps, so the run is
// cancelled mid-run, after n steps.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestScenarioCancelJoinsGeneration: a disclosure run cancelled mid-run
// at two workers, while its engine generates the next slab in the
// background, returns only after that generation ends, so the goroutine
// count is back at its baseline once the run returns (polled for
// goroutine exit, within a bound). A slab here generates in
// milliseconds, so this checks the cancelled path's wiring;
// population's TestDisclosureRunJoinsGeneration slows generation down
// to make the same check fail on a run that does not join.
func TestScenarioCancelJoinsGeneration(t *testing.T) {
	sys := scenarioSystem(t)
	sc, err := sys.Build(DisclosureSpec{
		Population: PopulationSpec{Users: 20_000, Recipients: 1000, CoverRate: 1},
		Disclosure: population.DisclosureConfig{Batch: 256, MaxRounds: 4000, CheckEvery: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	ctx := &cancelAfter{Context: context.Background()}
	ctx.n.Store(40) // 160 rounds, ~10 slabs
	if _, err := sc.Run(ctx, RunOptions{Workers: 2}); err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	const bound = 40 * time.Millisecond
	for deadline := time.Now().Add(bound); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines %v after the cancelled run returned, %d before it",
				runtime.NumGoroutine(), bound, baseline)
		}
	}
}

// TestScenarioContextCancel: a cancelled context interrupts the round
// loop with the context's error.
func TestScenarioContextCancel(t *testing.T) {
	sys := scenarioSystem(t)
	sc, err := sys.Build(DisclosureSpec{
		Population: PopulationSpec{Users: 16, Recipients: 40},
		Disclosure: population.DisclosureConfig{MaxRounds: 4000},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sc.Run(ctx, RunOptions{Workers: 1}); err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

// TestScenarioStopReturnsCause: for every spec type, a context cancelled
// with a cause before Run, or one whose 50 ms deadline passes mid-run,
// makes Run return that cause and no result. Each spec runs for 0.4 s or
// more at two workers uncancelled (on a 2-core Xeon), so the deadline
// falls inside the protocol's parallel loop, where Run checks its
// context once per window, session, flow or CheckEvery rounds. The
// cascade is a two-hop route (one VIT and one CIT hop, 8 flows,
// Duration 6000) whose flows are the longest units here. A stop may wait
// for the units in flight, one 6000 s flow per worker (about 0.1 s, or
// 1 s under -race), so each stopped run must return within stopBound.
func TestScenarioStopReturnsCause(t *testing.T) {
	const (
		deadline  = 50 * time.Millisecond
		stopBound = 2 * time.Second
	)
	sys := scenarioSystem(t)
	specs := []struct {
		name string
		spec Spec
	}{
		{"attack-set", AttackSetSpec{
			Attack:   AttackConfig{TrainWindows: 8000, EvalWindows: 8000},
			Features: []analytic.Feature{analytic.FeatureMean},
		}},
		{"session", SessionAttackSpec{Session: SessionAttackConfig{
			Feature: analytic.FeatureMean, TrainWindows: 400, EvalSessions: 800, MaxWindows: 40,
		}}},
		{"disclosure", DisclosureSpec{
			Population: PopulationSpec{Users: 20_000, Recipients: 1000, CoverRate: 1},
			Disclosure: population.DisclosureConfig{Batch: 256, MaxRounds: 20_000, CheckEvery: 4},
		}},
		{"flow", FlowCorrelationSpec{
			Population: PopulationSpec{Users: 64, Recipients: 40},
			Corr:       FlowCorrConfig{Duration: 4000},
		}},
		{"cascade", CascadeCorrelationSpec{
			Cascade: CascadeSpec{Flows: 8, Hops: []CascadeHop{{Policy: CascadeVIT, SigmaT: 1e-3}, {Policy: CascadeCIT}}},
			Corr:    CascadeCorrConfig{Duration: 6000},
		}},
		{"active", ActiveDetectionSpec{
			Active: ActiveSpec{Flows: 32, Mode: active.ModeChaff, Amplitude: 20},
			Detect: ActiveDetectConfig{Duration: 8000},
		}},
	}
	for _, tc := range specs {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := sys.Build(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			check := func(when string, ctx context.Context, cause error) {
				t.Helper()
				start := time.Now()
				res, err := sc.Run(ctx, RunOptions{Workers: 2})
				if took := time.Since(start); took > stopBound {
					t.Errorf("%s: Run returned after %v, want within %v", when, took, stopBound)
				}
				if res != nil || err != cause {
					t.Errorf("%s: Run returned (%v, %v), want (nil, %v)", when, res, err, cause)
				}
			}
			cause := errors.New("stopped before the run")
			ctx, cancel := context.WithCancelCause(context.Background())
			cancel(cause)
			check("cancelled", ctx, cause)

			cause = errors.New("deadline passed mid-run")
			ctx, stop := context.WithTimeoutCause(context.Background(), deadline, cause)
			defer stop()
			check("deadline", ctx, cause)
		})
	}
}
