package core

import (
	"context"
	"runtime"
	"testing"

	"linkpad/internal/analytic"
)

// A session must be reproducible from (seed, class, sessionID) and
// distinct across IDs, classes, and from replica streams with the same
// numeric ID (domain separation).
func TestSessionDeterminismAndDomainSeparation(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	read := func(src interface{ Next() float64 }, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = src.Next()
		}
		return out
	}
	a1, err := sys.NewSession(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := sys.NewSession(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	xs1 := read(a1.Source(), 64)
	xs2 := read(a2.Source(), 64)
	for i := range xs1 {
		if xs1[i] != xs2[i] {
			t.Fatalf("same (class, sessionID) diverged at PIAT %d", i)
		}
	}
	b, err := sys.NewSession(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ys := read(b.Source(), 64); ys[0] == xs1[0] && ys[1] == xs1[1] {
		t.Error("different session IDs reproduced the same stream")
	}
	c, err := sys.NewSession(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ys := read(c.Source(), 64); ys[0] == xs1[0] && ys[1] == xs1[1] {
		t.Error("different classes reproduced the same stream")
	}
	// Replica stream 7 and session 7 must be independent realizations.
	rep, err := sys.PIATSource(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ys := read(rep, 64); ys[0] == xs1[0] && ys[1] == xs1[1] {
		t.Error("session stream collides with the replica protocol's stream")
	}
	if _, err := sys.NewSession(-1, 1); err == nil {
		t.Error("negative class accepted")
	}
	if _, err := sys.NewSession(2, 1); err == nil {
		t.Error("out-of-range class accepted")
	}
}

// The session clock and warm-up: consuming windows advances Now
// monotonically in stream time; warm-up discards observations but keeps
// the timeline (a warmed session continues where warm-up stopped, it does
// not restart).
func TestSessionClockAndWarmup(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sys.NewSession(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Now() != 0 {
		t.Fatalf("fresh session: now=%v", sess.Now())
	}
	sess.WarmUp(200)
	warmEnd := sess.Now()
	// 200 PIATs at tau = 10 ms is ~2 s of stream time.
	if warmEnd < 1.5 || warmEnd > 2.5 {
		t.Errorf("warm-up clock = %v, want ~2s", warmEnd)
	}
	// Continuing the same session reproduces the continuation of the
	// un-warmed timeline: warm-up is observation discard, not a restart.
	ref, err := sys.NewSession(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	refAll := make([]float64, 264)
	for i := range refAll {
		refAll[i] = ref.Source().Next()
	}
	for i := 0; i < 64; i++ {
		if got := sess.Source().Next(); got != refAll[200+i] {
			t.Fatalf("post-warm-up PIAT %d = %v, want continuation %v", i, got, refAll[200+i])
		}
	}
}

// The continuous-stream attack must be byte-identical at any
// session-parallelism width — the session analogue of
// TestRunAttackWorkerInvariance.
func TestRunAttackSessionWorkerInvariance(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := SessionAttackConfig{
		Feature:       analytic.FeatureEntropy,
		WindowSize:    300,
		TrainSessions: 4,
		TrainWindows:  40,
		EvalSessions:  16,
		MaxWindows:    5,
	}
	out, err := runSpecAt(sys, SessionAttackSpec{Session: base}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := out.Session
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
		out, err := runSpecAt(sys, SessionAttackSpec{Session: base}, workers)
		if err != nil {
			t.Fatal(err)
		}
		got := out.Session
		if got.DetectionRate != ref.DetectionRate ||
			got.DecidedRate != ref.DecidedRate ||
			got.MeanWindowsToDecision != ref.MeanWindowsToDecision ||
			got.MeanTimeToDecision != ref.MeanTimeToDecision ||
			got.WindowDetectionRate != ref.WindowDetectionRate {
			t.Fatalf("workers=%d: %+v differs from reference %+v", workers, got, ref)
		}
		for tc := 0; tc < 2; tc++ {
			for pc := 0; pc < 2; pc++ {
				if got.Confusion.Count(tc, pc) != ref.Confusion.Count(tc, pc) {
					t.Fatalf("workers=%d: confusion[%d][%d] differs", workers, tc, pc)
				}
			}
		}
	}
}

// Against the CIT lab system the anytime entropy attack should decide
// quickly and correctly: near-perfect detection, most sessions decided
// within the budget, and a decision time of a few windows.
func TestRunAttackSessionDetectsLabSystem(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	out, err := runSpec(sys, SessionAttackSpec{Session: SessionAttackConfig{
		Feature:       analytic.FeatureEntropy,
		WindowSize:    1000,
		TrainSessions: 4,
		TrainWindows:  60,
		EvalSessions:  20,
		MaxWindows:    8,
	}})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Session
	if res.DetectionRate < 0.9 {
		t.Errorf("detection = %v, want > 0.9 (CIT is broken at n=1000)", res.DetectionRate)
	}
	if res.DecidedRate < 0.8 {
		t.Errorf("decided fraction = %v, want > 0.8", res.DecidedRate)
	}
	if res.DecidedRate > 0 {
		if res.MeanWindowsToDecision < 1 || res.MeanWindowsToDecision > 8 {
			t.Errorf("mean windows to decision = %v", res.MeanWindowsToDecision)
		}
		// Stream time per window is ~n*tau = 10 s.
		wantLo := 0.8 * res.MeanWindowsToDecision * 10
		wantHi := 1.2 * res.MeanWindowsToDecision * 10
		if res.MeanTimeToDecision < wantLo || res.MeanTimeToDecision > wantHi {
			t.Errorf("mean time to decision = %v s, want in [%v, %v]",
				res.MeanTimeToDecision, wantLo, wantHi)
		}
	}
	if res.WindowDetectionRate < 0.85 {
		t.Errorf("per-window detection = %v, want > 0.85", res.WindowDetectionRate)
	}
	if res.Confusion.Total() != 40 {
		t.Errorf("confusion total = %d, want 40", res.Confusion.Total())
	}
}

// VIT with a large sigma_T defeats the anytime attack too: detection near
// guessing and decisions rare (the posterior hovers at the prior).
func TestRunAttackSessionVITResists(t *testing.T) {
	cfg := DefaultLabConfig()
	cfg.SigmaT = 100e-6
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runSpec(sys, SessionAttackSpec{Session: SessionAttackConfig{
		Feature:       analytic.FeatureEntropy,
		WindowSize:    500,
		TrainSessions: 4,
		TrainWindows:  40,
		EvalSessions:  16,
		MaxWindows:    4,
		Confidence:    0.999,
	}})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Session
	if res.DetectionRate > 0.8 {
		t.Errorf("detection against sigma_T=100us = %v, want near 0.5", res.DetectionRate)
	}
}

func TestRunAttackSessionValidation(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSpec(sys, SessionAttackSpec{Session: SessionAttackConfig{TrainWindows: 1}}); err == nil {
		t.Error("a single training window should fail")
	}
	if _, err := runSpec(sys, SessionAttackSpec{Session: SessionAttackConfig{Confidence: 1.5}}); err == nil {
		t.Error("confidence outside (0,1) should fail")
	}
	// Multi-rate systems work through the session API as well.
	mcfg := DefaultLabConfig()
	mcfg.Rates = []Rate{
		{Label: "10pps", PPS: 10},
		{Label: "20pps", PPS: 20},
		{Label: "40pps", PPS: 40},
	}
	msys, err := NewSystem(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runSpec(msys, SessionAttackSpec{Session: SessionAttackConfig{
		Feature:       analytic.FeatureEntropy,
		WindowSize:    300,
		TrainSessions: 2,
		TrainWindows:  24,
		EvalSessions:  6,
		MaxWindows:    3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Session
	if res.Confusion.Total() != 18 {
		t.Errorf("confusion total = %d, want 18", res.Confusion.Total())
	}
}

// The split train/evaluate API: one training evaluated twice must (a)
// reproduce the session scenario exactly for the same knobs, and (b) support
// a full-budget pass (Confidence 1 disables the anytime stop) next to an
// anytime pass without retraining.
func TestTrainSessionAttackReuse(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := SessionAttackConfig{
		Feature:       analytic.FeatureEntropy,
		WindowSize:    300,
		TrainSessions: 4,
		TrainWindows:  40,
		EvalSessions:  10,
		MaxWindows:    4,
	}
	out, err := runSpec(sys, SessionAttackSpec{Session: cfg})
	if err != nil {
		t.Fatal(err)
	}
	ref := out.Session
	att, err := sys.TrainSessionAttack(context.Background(), cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := att.Evaluate(context.Background(), cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.DetectionRate != ref.DetectionRate || got.DecidedRate != ref.DecidedRate ||
		got.MeanWindowsToDecision != ref.MeanWindowsToDecision ||
		got.WindowDetectionRate != ref.WindowDetectionRate {
		t.Fatalf("split API %+v differs from the session scenario %+v", got, ref)
	}

	// Full-budget pass: no session decides early, every session observes
	// exactly MaxWindows windows.
	full, err := att.Evaluate(context.Background(), SessionAttackConfig{
		EvalSessions: 10,
		MaxWindows:   4,
		Confidence:   1,
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full.DecidedRate != 0 || full.MeanWindowsToDecision != 0 {
		t.Errorf("confidence 1 still decided early: decided=%v windows=%v",
			full.DecidedRate, full.MeanWindowsToDecision)
	}
	if full.Confusion.Total() != 20 {
		t.Errorf("confusion total = %d, want 20", full.Confusion.Total())
	}
	// Budget-end MAP decisions still detect the lab system.
	if full.DetectionRate < 0.9 {
		t.Errorf("full-budget detection = %v, want > 0.9", full.DetectionRate)
	}
	// Evaluate validates its run-time knobs.
	if _, err := att.Evaluate(context.Background(), SessionAttackConfig{Confidence: 1.01}, RunOptions{}); err == nil {
		t.Error("confidence above 1 accepted")
	}
}

// withDefaults must be idempotent: the session scenario applies it before
// delegating to TrainSessionAttack/Evaluate, which apply it again.
func TestSessionConfigDefaultsIdempotent(t *testing.T) {
	once := SessionAttackConfig{}.withDefaults()
	twice := once.withDefaults()
	if once != twice {
		t.Fatalf("withDefaults not idempotent: %+v vs %+v", once, twice)
	}
}

// Disabling warm-up must actually start observation at stream time zero:
// the first observed window of a no-warm-up session replays the session's
// raw timeline from its first PIAT.
func TestSessionNoWarmupObservesFromStart(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sys.NewSession(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	sess.WarmUp(-1) // disabled: no-op
	if sess.Now() != 0 {
		t.Fatalf("disabled warm-up advanced the stream clock to %v", sess.Now())
	}
	ref, err := sys.NewSession(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sess.Source().Next(), ref.Source().Next(); got != want {
		t.Errorf("first PIAT after disabled warm-up = %v, want %v", got, want)
	}
}

// A confidence threshold at or below the largest class prior would
// "decide" on zero evidence; Evaluate must reject it.
func TestEvaluateRejectsPriorLevelConfidence(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	att, err := sys.TrainSessionAttack(context.Background(), SessionAttackConfig{
		Feature:       analytic.FeatureEntropy,
		WindowSize:    300,
		TrainSessions: 2,
		TrainWindows:  8,
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{0.3, 0.5} {
		if _, err := att.Evaluate(context.Background(), SessionAttackConfig{
			EvalSessions: 2, MaxWindows: 2, Confidence: c,
		}, RunOptions{}); err == nil {
			t.Errorf("confidence %v (<= equal prior 0.5) accepted", c)
		}
	}
}

// Negative run-time knobs must be rejected, not silently produce a
// degenerate result.
func TestEvaluateRejectsNonPositiveBudgets(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	att, err := sys.TrainSessionAttack(context.Background(), SessionAttackConfig{
		Feature:       analytic.FeatureVariance,
		WindowSize:    300,
		TrainSessions: 2,
		TrainWindows:  8,
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := att.Evaluate(context.Background(), SessionAttackConfig{EvalSessions: -1, MaxWindows: 2}, RunOptions{}); err == nil {
		t.Error("negative EvalSessions accepted")
	}
	if _, err := att.Evaluate(context.Background(), SessionAttackConfig{EvalSessions: 2, MaxWindows: -1}, RunOptions{}); err == nil {
		t.Error("negative MaxWindows accepted")
	}
}
