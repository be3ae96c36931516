package population

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// lazy_test.go: the sharded lazy engine's equivalence properties. The
// sorted slabs must replay the eager engine's (time, user) order
// exactly, at any shard size and any worker count; and lazy
// materialization must leave never-sending users cold.

// funcBuilder adapts a build function to a Builder whose Frontier
// builds the user and reads its first arrival and rate off the merge of
// its sources.
type funcBuilder func(u int) (User, error)

func (f funcBuilder) Build(u int) (User, error) { return f(u) }

func (f funcBuilder) Frontier(u int) (Frontier, error) {
	usr, err := f(u)
	if err != nil {
		return Frontier{}, err
	}
	if usr.Messages.None() {
		return Frontier{}, fmt.Errorf("user %d has no payload source", u)
	}
	merge := traffic.NewPair(usr.Messages, usr.Cover)
	t, cover := merge.NextFrom()
	return Frontier{T: t, Cover: cover, Rate: merge.Rate()}, nil
}

// refBuilder returns a pure per-user builder over the refUsers
// population: building user u twice yields identically seeded users.
func refBuilder(t testing.TB, recipients int, cover, churn bool) funcBuilder {
	t.Helper()
	shape := testShape(t, recipients)
	return func(u int) (User, error) {
		rate, coverRate := 5+float64(u%3)*20, 0.0
		if cover {
			coverRate = rate
		}
		usr, err := poissonUser(xrand.New(uint64(3000+u)), u%3, rate, coverRate, shape)
		if err != nil {
			return User{}, err
		}
		if churn {
			sched, err := traffic.NewOnOffSchedule(0.05, 0.05, xrand.New(uint64(7000+u)))
			if err != nil {
				return User{}, err
			}
			usr.Presence = sched
		}
		return usr, nil
	}
}

// collectRounds drains n rounds into deep copies.
func collectRounds(t testing.TB, e *Engine, n, batch int) []Round {
	t.Helper()
	out := make([]Round, n)
	var r Round
	for i := range out {
		if err := e.NextRound(batch, &r); err != nil {
			t.Fatal(err)
		}
		out[i] = copyRound(&r)
	}
	return out
}

// copyRound deep-copies a round.
func copyRound(r *Round) Round {
	return Round{
		Users: append([]int32(nil), r.Users...),
		Rcpts: append([]int32(nil), r.Rcpts...),
		Dummy: append([]bool(nil), r.Dummy...),
		Times: append([]float64(nil), r.Times...),
		Flush: r.Flush,
	}
}

// tiedBuilder returns a pure builder whose payload and cover are
// jitter-free CBR sources at one rate, so every user's first payload
// and cover gaps are equal. The engine's merge gives such a tie to the
// payload; the builder's Frontier, which the lazy engine's init pass
// reads without building the user, must too.
func tiedBuilder(t testing.TB, recipients int) funcBuilder {
	shape := testShape(t, recipients)
	return func(u int) (User, error) {
		rate := 5 + float64(u%4)*3
		cbr, err := traffic.CBRModel(rate, 0)
		if err != nil {
			return User{}, err
		}
		return User{Class: u % 3, Messages: cbr, Cover: cbr, Shape: shape, RNG: xrand.NewStream(uint64(9000 + u))}, nil
	}
}

// TestLazyEngineMatchesEager: a lazily materialized engine emits the
// byte-identical round stream of an eager engine over the same users —
// with and without cover, and with payload and cover tied on every
// user's first arrival.
func TestLazyEngineMatchesEager(t *testing.T) {
	const n, recipients = 60, 80
	cases := []struct {
		name  string
		build funcBuilder
		// payloadFirst: every user's first arrival must be its payload's
		// (no cover source, or a cover source that only ties).
		payloadFirst bool
	}{
		{"cover", refBuilder(t, recipients, true, false), false},
		{"no-cover", refBuilder(t, recipients, false, false), true},
		{"tied-first-gaps", tiedBuilder(t, recipients), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			users := make([]User, n)
			for u := range users {
				var err error
				if users[u], err = tc.build(u); err != nil {
					t.Fatal(err)
				}
			}
			eager, err := NewEngine(users, recipients)
			if err != nil {
				t.Fatal(err)
			}
			lazy, err := NewLazyEngine(n, recipients, tc.build)
			if err != nil {
				t.Fatal(err)
			}
			for u := range lazy.cur {
				if l, e := lazy.cur[u], eager.cur[u]; l.t != e.t || l.cover != e.cover {
					t.Fatalf("user %d: lazy init frontier (%v, %t) differs from the eager engine's (%v, %t)", u, l.t, l.cover, e.t, e.cover)
				}
			}
			for u, c := range lazy.cur {
				if c.cover && tc.payloadFirst {
					t.Fatalf("user %d: frontier is a cover arrival; ties and cover-less users must start on the payload", u)
				}
			}
			want := collectRounds(t, eager, 300, 8)
			got := collectRounds(t, lazy, 300, 8)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("lazy engine round stream differs from eager engine")
			}
		})
	}
}

// TestLazyEngineShardInvariance: the round stream is invariant to the
// shard partition — a 7-user shard reduction over many shards replays a
// single-shard run exactly (slab horizons may differ across partitions,
// the merged (time, user) order may not).
func TestLazyEngineShardInvariance(t *testing.T) {
	const n, recipients = 50, 80
	run := func(shardSize int) []Round {
		e, err := newLazyEngine(n, recipients, shardSize, refBuilder(t, recipients, true, true))
		if err != nil {
			t.Fatal(err)
		}
		return collectRounds(t, e, 300, 8)
	}
	want := run(1 << 20) // single shard
	for _, ss := range []int{1, 7, 16} {
		if got := run(ss); !reflect.DeepEqual(got, want) {
			t.Fatalf("shardSize=%d: round stream differs from single-shard run", ss)
		}
	}
}

// TestLazyEngineWorkerInvariance: per-shard generation parallelism never
// changes the stream.
func TestLazyEngineWorkerInvariance(t *testing.T) {
	const n, recipients = 64, 80
	run := func(workers int) []Round {
		e, err := newLazyEngine(n, recipients, 8, refBuilder(t, recipients, true, false))
		if err != nil {
			t.Fatal(err)
		}
		e.SetWorkers(workers)
		return collectRounds(t, e, 200, 8)
	}
	want := run(1)
	for _, w := range []int{2, 4, 0} {
		if got := run(w); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: round stream differs", w)
		}
	}
}

// TestLazyEngineColdUsers: users whose first arrival lies beyond the
// observed horizon hold no source state. A population where most users
// send at a vanishing rate stays mostly cold through a short run.
func TestLazyEngineColdUsers(t *testing.T) {
	const n, recipients = 2000, 40
	const hot = 8
	shape := testShape(t, recipients)
	build := funcBuilder(func(u int) (User, error) {
		rate := 1e-6 // one arrival per ~11 simulated days
		if u%(n/hot) == 0 {
			rate = 50
		}
		return poissonUser(xrand.New(uint64(5000+u)), 0, rate, 0, shape)
	})
	e, err := NewLazyEngine(n, recipients, build)
	if err != nil {
		t.Fatal(err)
	}
	var r Round
	for i := 0; i < 100; i++ {
		if err := e.NextRound(8, &r); err != nil {
			t.Fatal(err)
		}
	}
	if w := e.WarmUsers(); w > n/10 {
		t.Fatalf("%d of %d users warm after a short run; lazy materialization is not lazy", w, n)
	} else if w == 0 {
		t.Fatal("no users warm despite emitted rounds")
	}
}

// TestLazyEngineAccessorsWarm: the read-only accessors materialize cold
// users on demand and agree with the builder's output.
func TestLazyEngineAccessorsWarm(t *testing.T) {
	const n, recipients = 40, 80
	build := refBuilder(t, recipients, false, true)
	e, err := NewLazyEngine(n, recipients, build)
	if err != nil {
		t.Fatal(err)
	}
	u := 17
	want, err := build(u)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Class(u); got != want.Class {
		t.Fatalf("Class(%d) = %d, want %d", u, got, want.Class)
	}
	if got, want := e.ContactsOf(u), contactsFrom(want.Shape, want.RNG); !reflect.DeepEqual(got, want) {
		t.Fatalf("ContactsOf(%d) = %v, want %v", u, got, want)
	}
	if e.PresenceOf(u) == nil {
		t.Fatalf("PresenceOf(%d) = nil for a churned population", u)
	}
	if e.WarmUsers() != 1 {
		t.Fatalf("accessor warmed %d users, want exactly 1", e.WarmUsers())
	}
}

// buildFails is a builder whose Frontier succeeds for every user but
// whose Build fails for user bad.
type buildFails struct {
	funcBuilder
	bad int
	err error
}

func (b buildFails) Build(u int) (User, error) {
	if u == b.bad {
		return User{}, b.err
	}
	return b.funcBuilder(u)
}

// TestLazyEngineBuilderError: a failing builder surfaces as an error,
// not a panic or a silent hole. A failing Frontier fails the
// constructor. A Build that fails in slab k fails the NextRound that
// needs slab k, with the same message at any worker count: a pipelined
// engine, which generates slab k while slab k-1 is merged, holds the
// error until then instead of reporting it a slab early.
func TestLazyEngineBuilderError(t *testing.T) {
	boom := errors.New("boom")
	_, err := NewLazyEngine(10, 40, funcBuilder(func(u int) (User, error) {
		if u == 7 {
			return User{}, boom
		}
		return refBuilder(t, 40, false, false)(u)
	}))
	if !errors.Is(err, boom) {
		t.Fatalf("builder error not surfaced: %v", err)
	}
	if _, err := NewLazyEngine(10, 40, nil); err == nil {
		t.Fatal("nil builder accepted")
	}

	const n, recipients = 64, 40
	good := refBuilder(t, recipients, false, false)
	newEng := func(b Builder) *Engine {
		e, err := NewLazyEngine(n, recipients, b)
		if err != nil {
			t.Fatal(err)
		}
		e.slabLen /= 64 // ~64 events a slab, so first arrivals span many slabs
		return e
	}
	// The user that sends last fails to build.
	probe := newEng(good)
	bad := 0
	for u := range probe.cur {
		if probe.cur[u].t > probe.cur[bad].t {
			bad = u
		}
	}
	failsAt := func(workers int) (int, string) {
		e := newEng(buildFails{good, bad, boom})
		e.SetWorkers(workers)
		var r Round
		for call := 1; call <= 10_000; call++ {
			if err := e.NextRound(8, &r); err != nil {
				if !errors.Is(err, boom) {
					t.Fatalf("workers=%d: NextRound error %v does not wrap the builder's", workers, err)
				}
				return call, err.Error()
			}
		}
		t.Fatalf("workers=%d: user %d never failed to build", workers, bad)
		return 0, ""
	}
	wantCall, wantMsg := failsAt(1)
	if wantCall < 16 {
		t.Fatalf("user %d fails at call %d; the test needs a late first arrival", bad, wantCall)
	}
	if want := fmt.Sprintf("population: build user %d: boom", bad); wantMsg != want {
		t.Fatalf("error %q, want %q", wantMsg, want)
	}
	for _, w := range []int{2, 4} {
		if call, msg := failsAt(w); call != wantCall || msg != wantMsg {
			t.Fatalf("workers=%d: NextRound call %d fails with %q; one worker: call %d, %q",
				w, call, msg, wantCall, wantMsg)
		}
	}
}

// TestLazyEngineImpureBuilder: a builder that reseeds from a call
// counter reports one first arrival from Frontier and builds another.
// Warming such a user must fail naming it, not silently shift its stream
// off the recorded frontier.
func TestLazyEngineImpureBuilder(t *testing.T) {
	const n, recipients = 20, 40
	var calls atomic.Uint64
	shape := testShape(t, recipients)
	impure := funcBuilder(func(u int) (User, error) {
		msgs, err := traffic.PoissonModel(10)
		if err != nil {
			return User{}, err
		}
		msgs.Start(xrand.NewStream(calls.Add(1)))
		return User{Messages: msgs, Shape: shape, RNG: xrand.NewStream(uint64(u))}, nil
	})
	e, err := NewLazyEngine(n, recipients, impure)
	if err != nil {
		t.Fatal(err)
	}
	var r Round
	err = e.NextRound(8, &r)
	if err == nil {
		t.Fatal("an impure builder warmed without error")
	}
	if !strings.Contains(err.Error(), "population: user ") || !strings.Contains(err.Error(), "frontier") {
		t.Fatalf("error does not name the user and its frontier: %v", err)
	}
}

// BenchmarkLazyEngineInit times NewLazyEngine over 1e5 users with
// cover through a funcBuilder, whose Frontier builds the user: the
// engine's init pass plus one full build per user. BenchmarkNewPopulation
// in internal/core times the production builder, whose Frontier builds
// nothing.
func BenchmarkLazyEngineInit(b *testing.B) {
	const n, recipients = 100_000, 10_000
	build := refBuilder(b, recipients, true, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewLazyEngine(n, recipients, build); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDisclosureObserve times disclosure.observe, the sequential
// fold of each round into the shared background and into the
// estimators of the targets that sent in it, from fresh estimators over
// 64 rounds shaped like population-scale cells: 8 targets, 10,000
// recipients, batch 1024. ns/round is the per-round cost, accumulator
// growth included.
func BenchmarkDisclosureObserve(b *testing.B) {
	const n, recipients, batch, rounds = 10_000, 10_000, 1024, 64
	e, err := NewLazyEngine(n, recipients, refBuilder(b, recipients, true, false))
	if err != nil {
		b.Fatal(err)
	}
	e.SetWorkers(1)
	rs := collectRounds(b, e, rounds, batch)
	for _, k := range []EstimatorKind{EstimatorClassic, EstimatorLeastSquares} {
		b.Run(k.String(), func(b *testing.B) {
			cfg := DisclosureConfig{Estimator: k}.withDefaults(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := newDisclosure(e, cfg)
				b.StartTimer()
				for r := range rs {
					d.observe(&rs[r])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds), "ns/round")
		})
	}
}
