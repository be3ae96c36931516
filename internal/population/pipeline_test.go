package population

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"linkpad/internal/obs"
	"linkpad/internal/xrand"
)

// pipeline_test.go: the pipelined refill. With more than one worker the
// engine generates the next slab in the background while the current
// one is merged; the round stream, the counters and the errors must be
// those of the sequential engine, and no generation may outlive a run.

// enableObs turns counter collection on for one test (engines built
// while it is on carry a probe) and restores the global collector
// afterwards.
func enableObs(t *testing.T) {
	t.Helper()
	obs.Reset()
	obs.SetEnabled(true)
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.Reset()
	})
}

// horizon joins any background generation and returns the horizon of
// the newest generated slab, which moves exactly once per refill.
func horizon(e *Engine) float64 {
	e.join()
	return e.slabEnd
}

// checkBlockMins asserts the due-block index: every block's minimum is
// the least frontier time among its users. The caller has joined.
func checkBlockMins(t *testing.T, e *Engine) {
	t.Helper()
	for sh := 0; sh < e.numShards(); sh++ {
		lo, hi := e.shardRange(sh)
		for b := lo; b < hi; b += blockSize {
			want := math.Inf(1)
			for u := b; u < b+blockSize && u < hi; u++ {
				want = math.Min(want, e.cur[u].t)
			}
			bi := sh*e.blocksPerShard + (b-lo)/blockSize
			if got := e.blockMin[bi]; got != want {
				t.Fatalf("shard %d block at user %d: minimum %v, want %v", sh, b, got, want)
			}
		}
	}
}

// TestSlabOrder: every generated slab is the shards' events in
// ascending (time, user) order, equal to a concatenate-and-stable-sort
// of what the shards generated, at shard sizes 7, 37 and 1024 and one
// and two workers; and the engine's event stream, read across refills,
// is ascending too. The tied population's CBR payload and cover share a
// phase, so every arrival ties and users of one rate share every
// instant: crowded buckets, and at equal (time, user) the payload must
// come first.
func TestSlabOrder(t *testing.T) {
	const n, recipients, slabs = 150, 40, 30
	for _, pop := range []struct {
		name  string
		build funcBuilder
	}{
		{"poisson", refBuilder(t, recipients, true, false)},
		{"tied", tiedBuilder(t, recipients)},
	} {
		for _, shardSize := range []int{7, 37, 1024} {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/shard=%d/workers=%d", pop.name, shardSize, workers), func(t *testing.T) {
					newEng := func() *Engine {
						e, err := newLazyEngine(n, recipients, shardSize, pop.build)
						if err != nil {
							t.Fatal(err)
						}
						e.SetWorkers(workers)
						return e
					}
					e := newEng()
					events := 0
					for s := 0; s < slabs; s++ {
						if err := e.generate(); err != nil {
							t.Fatal(err)
						}
						var want []event
						for i := range e.gens {
							want = append(want, e.gens[i].buf...)
						}
						slices.SortStableFunc(want, cmpEvent)
						if !slices.Equal(e.next, want) {
							t.Fatalf("slab %d is not the stable (time, user) sort of the shards' events", s)
						}
						events += len(want)
					}
					stream := newEng()
					var prev event
					for k := 0; k < events; k++ {
						ev, err := stream.nextEvent()
						if err != nil {
							t.Fatal(err)
						}
						if k > 0 {
							if c := cmpEvent(prev, ev); c > 0 || (c == 0 && !(!prev.dummy && ev.dummy)) {
								t.Fatalf("event %d %+v follows %+v: want ascending (time, user), payload before a tied cover", k, ev, prev)
							}
						}
						prev = ev
					}
					stream.join()
				})
			}
		}
	}
}

// TestPipelinedEngineMatchesSequential: at 2 and 4 workers the pipelined
// engine emits the sequential engine's rounds bit for bit, every Round
// field, over more than 100 refills, and counts the same active users —
// a slab generated ahead but never consumed counts nothing. It runs
// lazy and eager engines, with cover and with churn, on 37-user shards
// (two full 16-user blocks and a short one). The 2-worker run joins
// after every round and checks after each refill that every block's
// minimum is its users' least frontier time; the 4-worker run never
// joins, so generation and merge overlap as in production.
func TestPipelinedEngineMatchesSequential(t *testing.T) {
	const n, recipients, shardSize, batch, minRefills = 150, 40, 37, 32, 110
	enableObs(t)
	for _, lazy := range []bool{true, false} {
		for _, churn := range []bool{false, true} {
			name := fmt.Sprintf("lazy=%t/cover=%t/churn=%t", lazy, !churn, churn)
			t.Run(name, func(t *testing.T) {
				build := refBuilder(t, recipients, !churn, churn)
				newEng := func(workers int) *Engine {
					var e *Engine
					var err error
					if lazy {
						e, err = newLazyEngine(n, recipients, shardSize, build)
					} else {
						users := make([]User, n)
						for u := range users {
							if users[u], err = build(u); err != nil {
								t.Fatal(err)
							}
						}
						e, err = newEagerEngine(users, recipients, shardSize)
					}
					if err != nil {
						t.Fatal(err)
					}
					// Slabs of ~512 events instead of ~4096: the stream is
					// invariant to slab boundaries, and 100 refills stay cheap.
					e.slabLen /= 8
					e.SetWorkers(workers)
					return e
				}
				// The sequential reference runs until it has refilled
				// minRefills times; the pipelined runs replay its rounds.
				var want []Round
				before := obs.Snapshot()[obs.PopulationActiveUser]
				ref := newEng(1)
				var r Round
				for refills, last := 0, 0.0; refills < minRefills; {
					if err := ref.NextRound(batch, &r); err != nil {
						t.Fatal(err)
					}
					want = append(want, copyRound(&r))
					if h := horizon(ref); h != last {
						refills, last = refills+1, h
					}
				}
				wantActive := obs.Snapshot()[obs.PopulationActiveUser] - before
				for _, workers := range []int{2, 4} {
					checked := workers == 2
					before := obs.Snapshot()[obs.PopulationActiveUser]
					e := newEng(workers)
					refills, last := 0, 0.0
					for i := range want {
						if err := e.NextRound(batch, &r); err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(copyRound(&r), want[i]) {
							t.Fatalf("workers=%d: round %d differs from the sequential engine", workers, i)
						}
						if !checked {
							continue
						}
						if h := horizon(e); h != last {
							refills, last = refills+1, h
							checkBlockMins(t, e)
						}
					}
					if checked && refills < minRefills {
						t.Fatalf("workers=%d: %d refills, want at least %d", workers, refills, minRefills)
					}
					if got := obs.Snapshot()[obs.PopulationActiveUser] - before; got != wantActive {
						t.Fatalf("workers=%d: %d active users counted, sequential engine %d", workers, got, wantActive)
					}
					e.join()
				}
			})
		}
	}
}

// slowBuilder's Build sleeps while its flag is set, so a slab in which
// many users warm lives far longer than a short poll. Its Frontier does
// not sleep, so the init pass stays fast.
type slowBuilder struct {
	funcBuilder
	slow *atomic.Bool
}

func (b slowBuilder) Build(u int) (User, error) {
	if b.slow.Load() {
		time.Sleep(2 * time.Millisecond)
	}
	return b.funcBuilder(u)
}

// settled polls runtime.NumGoroutine until it is back at baseline,
// failing once the bound passes. A run that joins its generation before
// returning is back at baseline at once; one that leaves a slow slab
// generating is not for the slab's whole life, many times the bound.
func settled(t *testing.T, baseline int) {
	t.Helper()
	const bound = 40 * time.Millisecond
	deadline := time.Now().Add(bound)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines %v after the run returned, %d before it: a slab is still generating",
				runtime.NumGoroutine(), bound, baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDisclosureRunJoinsGeneration: no background generation outlives a
// disclosure run. Every Build sleeps, and 4096 users at one message a
// second each make nearly every event of the run's first slabs a user's
// first, so the slab a pipelined engine starts at each refill warms
// about 60 users and takes about 100 ms to generate; the run must still
// be back at its goroutine baseline within the poll's bound when it
// finishes, when it fails, and when it is stopped early. A failing Step
// joins nothing: the failed refill starts no background slab, so the
// engine has no generation in flight when the error returns.
func TestDisclosureRunJoinsGeneration(t *testing.T) {
	const n, recipients = 4096, 40
	var slow atomic.Bool
	t.Cleanup(func() { slow.Store(false) })
	shape := testShape(t, recipients)
	// newRun starts a run; with failLate, its builder fails for the
	// first user to send after the second slab.
	newRun := func(t *testing.T, failLate bool, rounds int) *DisclosureRun {
		t.Helper()
		var bad atomic.Int64
		bad.Store(-1)
		build := slowBuilder{funcBuilder(func(u int) (User, error) {
			if int64(u) == bad.Load() {
				return User{}, errors.New("boom")
			}
			return poissonUser(xrand.New(uint64(3000+u)), 0, 1, 0, shape)
		}), &slow}
		e, err := NewLazyEngine(n, recipients, build)
		if err != nil {
			t.Fatal(err)
		}
		e.slabLen /= 64 // ~64 events a slab: ~100 ms of slow builds
		if failLate {
			first := -1
			for u, c := range e.cur {
				if c.t > 2*e.slabLen && (first < 0 || c.t < e.cur[first].t) {
					first = u
				}
			}
			bad.Store(int64(first))
		}
		run, err := e.StartDisclosure(DisclosureConfig{Batch: 8, MaxRounds: rounds, Workers: 2, Targets: []int{0}})
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	t.Run("finished", func(t *testing.T) {
		slow.Store(true)
		defer slow.Store(false)
		baseline := runtime.NumGoroutine()
		run := newRun(t, false, 24)
		if done, err := run.Step(24); err != nil || !done {
			t.Fatalf("Step = %t, %v; want a finished run", done, err)
		}
		settled(t, baseline)
	})
	t.Run("failed", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		run := newRun(t, true, 1000)
		slow.Store(true)
		defer slow.Store(false)
		_, err := run.Step(1000)
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("Step error = %v, want the builder's", err)
		}
		if run.d.eng.running {
			t.Fatal("the failed refill left a slab generating in the background")
		}
		settled(t, baseline)
	})
	t.Run("stopped", func(t *testing.T) {
		slow.Store(true)
		defer slow.Store(false)
		baseline := runtime.NumGoroutine()
		run := newRun(t, false, 1000)
		if done, err := run.Step(12); err != nil || done {
			t.Fatalf("Step = %t, %v; want a run in progress", done, err)
		}
		run.Stop()
		settled(t, baseline)
	})
}

// TestSequentialEngineStartsNoGoroutine: at one worker a refill
// generates in the foreground, so no round leaves a goroutine behind.
func TestSequentialEngineStartsNoGoroutine(t *testing.T) {
	e, err := NewLazyEngine(64, 40, refBuilder(t, 40, true, false))
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(1)
	baseline := runtime.NumGoroutine()
	var r Round
	for i := 0; i < 2000; i++ {
		if err := e.NextRound(8, &r); err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Fatalf("round %d: %d goroutines, %d before the run", i, n, baseline)
		}
	}
}

// TestPipelinedRoundLoopAllocs is TestRoundLoopAllocFree's round loop at
// two workers. The pipelined path may allocate per refill, never per
// round. A refill's fan-out, par.MapWorker at two workers, allocates its
// cursor, lock, WaitGroup and closures, about ten objects, and starting
// the background goroutine one more; about 11 a refill were measured,
// and perRefill leaves headroom over that. At batch 8 a slab lasts ~500
// rounds, so one allocation per round would exceed the bound
// thirtyfold.
func TestPipelinedRoundLoopAllocs(t *testing.T) {
	const perRefill = 16
	users, recipients := testUsers(t, 16, true)
	// Four shards, so the background fan-out really runs two workers.
	e, err := newEagerEngine(users, recipients, 4)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(2)
	d := newDisclosure(e, DisclosureConfig{Batch: 8, Targets: []int{0, 5, 10}}.withDefaults(len(users)))
	var r Round
	round := func() {
		if err := e.NextRound(8, &r); err != nil {
			t.Fatal(err)
		}
		d.applyDummies(&r)
		d.observe(&r)
	}
	for i := 0; i < 2000; i++ {
		round()
	}
	slabs := func() int { return int(math.Round(horizon(e) / e.slabLen)) }
	s0 := slabs()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 5000; i++ {
		round()
	}
	runtime.ReadMemStats(&m1)
	refills := slabs() - s0
	allocs := m1.Mallocs - m0.Mallocs
	if refills < 5 {
		t.Fatalf("only %d refills in 5000 rounds", refills)
	}
	if allocs > uint64(perRefill*refills) {
		t.Errorf("%d allocations over %d refills (%.1f a refill), want at most %d a refill",
			allocs, refills, float64(allocs)/float64(refills), perRefill)
	}
}

// BenchmarkEngineRounds times the round stream alone — generation, the
// slab sort and the round cut — over 1e5 users with cover, from a
// fresh engine through 64 rounds of 1024 messages (16 slabs), at one
// worker and at two, where the next slab generates while the current
// one is consumed. The engine's init pass is excluded; the join of the
// slab generated ahead is included, as a run must join before it
// returns. ns/round is the per-round cost.
func BenchmarkEngineRounds(b *testing.B) {
	const n, recipients, batch, rounds = 100_000, 10_000, 1024, 64
	build := refBuilder(b, recipients, true, false)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var r Round
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e, err := NewLazyEngine(n, recipients, build)
				if err != nil {
					b.Fatal(err)
				}
				e.SetWorkers(workers)
				b.StartTimer()
				for k := 0; k < rounds; k++ {
					if err := e.NextRound(batch, &r); err != nil {
						b.Fatal(err)
					}
				}
				e.join()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds), "ns/round")
		})
	}
}
