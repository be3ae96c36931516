package population

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// lazy_test.go: the sharded lazy engine's equivalence properties. The
// k-way shard reduction must replay the eager engine's merge order
// exactly, at any shard size and any worker count; lazy materialization
// must leave never-sending users cold; and ResumeDisclosure must
// round-trip the sharded engine state at arbitrary kill points.

// refBuilder returns a pure per-user builder over the refUsers
// population: building user u twice yields identically seeded stacks.
func refBuilder(t testing.TB, recipients int, cover, churn bool) Builder {
	t.Helper()
	return func(u int) (User, error) {
		master := xrand.New(uint64(3000 + u))
		rate := 5 + float64(u%3)*20
		msgs, err := traffic.NewPoisson(rate, master.Split())
		if err != nil {
			return User{}, err
		}
		var cov traffic.Source
		if cover {
			cov, err = traffic.NewPoisson(rate, master.Split())
			if err != nil {
				return User{}, err
			}
		}
		prng := master.Split()
		prof, err := NewProfile(recipients, 3, 0.7, prng)
		if err != nil {
			return User{}, err
		}
		usr := User{Class: u % 3, Messages: msgs, Cover: cov, Profile: prof, RNG: prng}
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
		out[i] = Round{
			Users: append([]int32(nil), r.Users...),
			Rcpts: append([]int32(nil), r.Rcpts...),
			Dummy: append([]bool(nil), r.Dummy...),
			Times: append([]float64(nil), r.Times...),
		}
	}
	return out
}

// tiedBuilder returns a pure builder whose payload and cover are
// jitter-free CBR sources at one rate, so every user's first payload
// and cover gaps are equal. Superpose gives such a tie to the payload
// (the lower index); the lazy engine's init pass, which reads the
// frontier without a Superpose, must too.
func tiedBuilder(recipients int) Builder {
	return func(u int) (User, error) {
		rate := 5 + float64(u%4)*3
		msgs, err := traffic.NewCBR(rate, 0, nil)
		if err != nil {
			return User{}, err
		}
		cov, err := traffic.NewCBR(rate, 0, nil)
		if err != nil {
			return User{}, err
		}
		prng := xrand.New(uint64(9000 + u))
		prof, err := NewProfile(recipients, 3, 0.7, prng)
		if err != nil {
			return User{}, err
		}
		return User{Class: u % 3, Messages: msgs, Cover: cov, Profile: prof, RNG: prng}, nil
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
		build Builder
		// payloadFirst: every user's first arrival must be its payload's
		// (no cover source, or a cover source that only ties).
		payloadFirst bool
	}{
		{"cover", refBuilder(t, recipients, true, false), false},
		{"no-cover", refBuilder(t, recipients, false, false), true},
		{"tied-first-gaps", tiedBuilder(recipients), true},
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
			if !reflect.DeepEqual(lazy.nextT, eager.nextT) || !reflect.DeepEqual(lazy.nextCover, eager.nextCover) {
				t.Fatal("lazy init frontier differs from the eager engine's")
			}
			for u, cover := range lazy.nextCover {
				if cover && tc.payloadFirst {
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
	build := func(u int) (User, error) {
		master := xrand.New(uint64(5000 + u))
		rate := 1e-6 // one arrival per ~11 simulated days
		if u%(n/hot) == 0 {
			rate = 50
		}
		msgs, err := traffic.NewPoisson(rate, master.Split())
		if err != nil {
			return User{}, err
		}
		prng := master.Split()
		prof, err := NewProfile(recipients, 3, 0.7, prng)
		if err != nil {
			return User{}, err
		}
		return User{Messages: msgs, Profile: prof, RNG: prng}, nil
	}
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
	if got := e.ContactsOf(u); !reflect.DeepEqual(got, want.Profile.Contacts()) {
		t.Fatalf("ContactsOf(%d) = %v, want %v", u, got, want.Profile.Contacts())
	}
	if e.PresenceOf(u) == nil {
		t.Fatalf("PresenceOf(%d) = nil for a churned population", u)
	}
	if e.WarmUsers() != 1 {
		t.Fatalf("accessor warmed %d users, want exactly 1", e.WarmUsers())
	}
}

// TestLazyEngineBuilderError: a failing builder surfaces as a
// constructor error, not a panic or a silent hole.
func TestLazyEngineBuilderError(t *testing.T) {
	boom := errors.New("boom")
	_, err := NewLazyEngine(10, 40, func(u int) (User, error) {
		if u == 7 {
			return User{}, boom
		}
		return refBuilder(t, 40, false, false)(u)
	})
	if !errors.Is(err, boom) {
		t.Fatalf("builder error not surfaced: %v", err)
	}
	if _, err := NewLazyEngine(10, 40, nil); err == nil {
		t.Fatal("nil builder accepted")
	}
}

// TestLazyDisclosureKillAndResume: ResumeDisclosure round-trips the
// sharded lazy engine state — kill at randomized rounds, serialize
// through JSON, rebuild a fresh lazy engine (cold users and all), and
// demand the resumed run finish byte-identically to the uninterrupted
// one. Small shards force the snapshot to traverse a multi-shard merge
// frontier.
func TestLazyDisclosureKillAndResume(t *testing.T) {
	const n, recipients, shardSize = 36, 120, 5
	build := func() *Engine {
		e, err := newLazyEngine(n, recipients, shardSize, refBuilder(t, recipients, true, true))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	cfg := DisclosureConfig{Batch: 8, MaxRounds: 500, CheckEvery: 25, ChurnAware: true, Workers: 1}
	base, err := build().RunDisclosure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	krng := xrand.New(4242)
	for trial := 0; trial < 4; trial++ {
		kill := 1 + krng.Intn(cfg.MaxRounds-1)
		run, err := build().StartDisclosure(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := run.Step(kill); err != nil {
			t.Fatal(err)
		}
		st, err := run.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var decoded DisclosureState
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatal(err)
		}
		// The snapshot must not have dragged the whole population warm:
		// only users that sent (or are targets) carry state.
		if len(decoded.Engine.Warm) == n && kill < 20 {
			t.Fatalf("kill=%d: snapshot serialized all %d users warm", kill, n)
		}
		resumed, err := build().ResumeDisclosure(cfg, &decoded)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := resumed.Step(cfg.MaxRounds); err != nil {
			t.Fatal(err)
		}
		got := resumed.Result()
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("kill=%d: resumed result differs from uninterrupted run\ngot  %+v\nwant %+v",
				kill, got, base)
		}
	}
}

// BenchmarkLazyEngineInit times NewLazyEngine over 1e5 users with
// cover: the init pass builds every user once and reads its frontier.
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
// fold of each round into every target's estimator, from fresh
// estimators over 64 rounds shaped like population-scale cells: 8
// targets, 10,000 recipients, batch 1024. ns/round is the per-round
// cost, accumulator growth included.
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
				d, err := newDisclosure(e, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for r := range rs {
					d.observe(&rs[r])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds), "ns/round")
		})
	}
}
