package population

import (
	"reflect"
	"testing"
)

// mix_test.go: the mix-policy conservation and invariance properties. A
// mix policy re-times and re-batches the engine's event stream but must
// neither lose, duplicate, nor invent messages: everything the engine
// generated is either emitted in exactly one round or still held by the
// policy.

// mixEvent is one emitted or held message, keyed by its full identity.
type mixEvent struct {
	t     float64
	user  int32
	rcpt  int32
	dummy bool
}

// drainRaw pulls the first n events of a twin engine's merged stream —
// the ground truth the mix policies consume.
func drainRaw(t *testing.T, e *Engine, n int) []mixEvent {
	t.Helper()
	out := make([]mixEvent, 0, n)
	for len(out) < n {
		ev, ok := e.popEvent()
		if !ok {
			if err := e.refill(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		out = append(out, mixEvent{t: ev.t, user: ev.user, rcpt: ev.rcpt, dummy: ev.dummy})
	}
	return out
}

// heldEvents reads the messages a policy is still holding: the pool's
// carried messages and the timed mix's lookahead.
func heldEvents(m MixPolicy) []mixEvent {
	var held []event
	switch m := m.(type) {
	case *poolMix:
		held = m.pool
	case *timedMix:
		if m.peeked {
			held = []event{m.peek}
		}
	}
	var out []mixEvent
	for _, ev := range held {
		out = append(out, mixEvent{t: ev.t, user: ev.user, rcpt: ev.rcpt, dummy: ev.dummy})
	}
	return out
}

// conservationSpecs are the mix configurations the conservation
// property runs against.
var conservationSpecs = []MixSpec{
	{Kind: MixThreshold},
	{Kind: MixPool},
	{Kind: MixPool, Seed: 41},
	{Kind: MixTimed},
}

// TestMixConservation: run every policy for many rounds, then demand
// emitted ∪ held be exactly the prefix of a twin engine's raw stream —
// every message exits exactly once or is provably still queued, no
// duplicates, no inventions. Rounds must also stay time-ordered within
// themselves, and flush stamps must not precede their round's arrivals.
func TestMixConservation(t *testing.T) {
	const n, batch, rounds = 16, 8, 300
	for _, spec := range conservationSpecs {
		t.Run(spec.Kind.String(), func(t *testing.T) {
			build := func() *Engine {
				users, recipients := testUsers(t, n, true)
				e, err := NewEngine(users, recipients)
				if err != nil {
					t.Fatal(err)
				}
				e.SetWorkers(1)
				return e
			}
			e := build()
			mix, err := e.NewMix(spec, batch)
			if err != nil {
				t.Fatal(err)
			}
			var emitted []mixEvent
			var r Round
			for i := 0; i < rounds; i++ {
				if err := mix.NextRound(&r); err != nil {
					t.Fatal(err)
				}
				if len(r.Users) == 0 {
					t.Fatalf("round %d emitted no messages", i)
				}
				for j := range r.Users {
					if j > 0 && r.Times[j] < r.Times[j-1] {
						t.Fatalf("round %d not time-ordered at message %d", i, j)
					}
					if r.Times[j] > r.Flush && spec.Kind != MixThreshold {
						t.Fatalf("round %d message %d at %v after the flush stamp %v",
							i, j, r.Times[j], r.Flush)
					}
					emitted = append(emitted, mixEvent{
						t: r.Times[j], user: r.Users[j], rcpt: r.Rcpts[j], dummy: r.Dummy[j]})
				}
			}
			held := heldEvents(mix)
			want := drainRaw(t, build(), len(emitted)+len(held))
			seen := make(map[mixEvent]int, len(want))
			for _, ev := range want {
				seen[ev]++
			}
			for _, ev := range emitted {
				seen[ev]--
				if seen[ev] < 0 {
					t.Fatalf("emitted event %+v not in the raw stream prefix (or emitted twice)", ev)
				}
			}
			for _, ev := range held {
				seen[ev]--
				if seen[ev] < 0 {
					t.Fatalf("held event %+v not in the raw stream prefix (or also emitted)", ev)
				}
			}
			for ev, c := range seen {
				if c != 0 {
					t.Fatalf("raw event %+v consumed by the mix but never emitted or held", ev)
				}
			}
		})
	}
}

// armsRaceMatrix spans the three arms-race axes; each entry exercises a
// distinct (mix, estimator, dummies) cell.
var armsRaceMatrix = []struct {
	name string
	mix  MixSpec
	est  EstimatorKind
	dum  DummyPolicy
}{
	{"threshold-ls-adaptive", MixSpec{Kind: MixThreshold}, EstimatorLeastSquares, DummyAdaptive},
	{"pool-classic-none", MixSpec{Kind: MixPool}, EstimatorClassic, DummyNone},
	{"pool-ls-uniform", MixSpec{Kind: MixPool, Seed: 99}, EstimatorLeastSquares, DummyUniform},
	{"pool-ml-adaptive", MixSpec{Kind: MixPool}, EstimatorML, DummyAdaptive},
	{"timed-ml-none", MixSpec{Kind: MixTimed}, EstimatorML, DummyNone},
	{"timed-classic-adaptive", MixSpec{Kind: MixTimed}, EstimatorClassic, DummyAdaptive},
}

// TestDisclosureWorkerInvarianceMatrix: every arms-race cell's result is
// a pure function of the seeded population — never of the engine's
// generation parallelism, nor of how the caller splits the round budget
// into Step calls — including the pool mix's private retention stream
// and the adaptive dummies' feedback loop. The core scenario layer steps
// by CheckEvery and the bench tracer by 1; a step of 37 splits rounds
// across CheckEvery boundaries.
func TestDisclosureWorkerInvarianceMatrix(t *testing.T) {
	for _, mc := range armsRaceMatrix {
		t.Run(mc.name, func(t *testing.T) {
			cfg := DisclosureConfig{
				Batch:      8,
				Mix:        mc.mix,
				Estimator:  mc.est,
				Dummies:    mc.dum,
				MaxRounds:  250,
				CheckEvery: 25,
			}
			run := func(workers, step int) *DisclosureResult {
				c := cfg
				c.Workers = workers
				run, err := buildEngine(t, 12, false).StartDisclosure(c)
				if err != nil {
					t.Fatal(err)
				}
				for !run.Done() {
					if _, err := run.Step(step); err != nil {
						t.Fatal(err)
					}
				}
				return run.Result()
			}
			ref := run(1, cfg.MaxRounds)
			for _, w := range []int{1, 2, 4} {
				for _, step := range []int{1, 37, cfg.MaxRounds} {
					if w == 1 && step == cfg.MaxRounds {
						continue
					}
					if got := run(w, step); !reflect.DeepEqual(got, ref) {
						t.Fatalf("workers=%d step=%d: result differs from workers=1 in one step", w, step)
					}
				}
			}
		})
	}
	// The league's own geometry, where several targets have a dummy in
	// the same round, so the parallel ML refresh phase really runs more
	// than one target at a time.
	for _, kind := range []MixKind{MixPool, MixTimed} {
		t.Run("league-"+kind.String()+"-ml-adaptive", func(t *testing.T) {
			cfg := DisclosureConfig{
				Batch:      leagueBatch,
				Mix:        MixSpec{Kind: kind},
				Estimator:  EstimatorML,
				Dummies:    DummyAdaptive,
				MaxRounds:  240,
				CheckEvery: 25,
			}
			run := func(workers int) (*DisclosureResult, int) {
				e, err := NewEngine(refUsers(t, leagueUsers, leagueRecipients, true, false), leagueRecipients)
				if err != nil {
					t.Fatal(err)
				}
				c := cfg
				c.Workers = workers
				run, err := e.StartDisclosure(c)
				if err != nil {
					t.Fatal(err)
				}
				maxDue := 0
				for !run.Done() {
					if _, err := run.Step(1); err != nil {
						t.Fatal(err)
					}
					maxDue = max(maxDue, len(run.d.due))
				}
				return run.Result(), maxDue
			}
			ref, due := run(1)
			if due < 2 {
				t.Fatalf("at most %d target due per round; the parallel phase is not exercised", due)
			}
			for _, w := range []int{2, 4} {
				if got, _ := run(w); !reflect.DeepEqual(got, ref) {
					t.Fatalf("workers=%d: result differs from workers=1", w)
				}
			}
		})
	}
}
