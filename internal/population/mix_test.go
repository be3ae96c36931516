package population

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"linkpad/internal/xrand"
)

// mix_test.go: the mix-policy conservation and resume properties. A mix
// policy re-times and re-batches the engine's event stream but must
// neither lose, duplicate, nor invent messages: everything the engine
// generated is either emitted in exactly one round or still held in the
// policy's serialized state — across any kill/resume point.

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

// heldEvents reads the messages a policy is still holding (the pool's
// carried messages, the timed mix's lookahead) out of its snapshot.
func heldEvents(m MixPolicy) []mixEvent {
	st := m.snapshot()
	if st == nil {
		return nil
	}
	var out []mixEvent
	for _, ev := range st.Pool {
		out = append(out, mixEvent{t: ev.T, user: ev.User, rcpt: ev.Rcpt, dummy: ev.Dummy})
	}
	if st.Peeked != nil {
		p := st.Peeked
		out = append(out, mixEvent{t: p.T, user: p.User, rcpt: p.Rcpt, dummy: p.Dummy})
	}
	return out
}

// conservationSpecs are the mix configurations every conservation and
// resume property runs against.
var conservationSpecs = []MixSpec{
	{Kind: MixThreshold},
	{Kind: MixPool},
	{Kind: MixPool, Retain: 0.9, Seed: 41},
	{Kind: MixTimed},
	{Kind: MixTimed, Period: 0.37},
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

// TestMixKillResumeRoundStream: snapshot engine+mix mid-run (through
// JSON), restore onto twins, and demand the continued round sequence be
// identical to the uninterrupted one — with the carried pool and the
// timed lookahead crossing the checkpoint intact. Together with
// TestMixConservation this is the exactly-once property at any kill
// point: the uninterrupted stream conserves, and resuming reproduces it.
func TestMixKillResumeRoundStream(t *testing.T) {
	const n, batch, rounds, kill = 14, 8, 220, 97
	for _, spec := range conservationSpecs {
		t.Run(spec.Kind.String(), func(t *testing.T) {
			build := func() (*Engine, MixPolicy) {
				users, recipients := testUsers(t, n, true)
				e, err := NewEngine(users, recipients)
				if err != nil {
					t.Fatal(err)
				}
				e.SetWorkers(1)
				m, err := e.NewMix(spec, batch)
				if err != nil {
					t.Fatal(err)
				}
				return e, m
			}
			collect := func(m MixPolicy, k int) []Round {
				out := make([]Round, k)
				for i := range out {
					if err := m.NextRound(&out[i]); err != nil {
						t.Fatal(err)
					}
					out[i] = Round{
						Users: append([]int32(nil), out[i].Users...),
						Rcpts: append([]int32(nil), out[i].Rcpts...),
						Dummy: append([]bool(nil), out[i].Dummy...),
						Times: append([]float64(nil), out[i].Times...),
						Flush: out[i].Flush,
					}
				}
				return out
			}
			_, base := build()
			want := collect(base, rounds)

			eng, m := build()
			got := collect(m, kill)
			engSt, err := eng.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			mixSt := m.snapshot()
			blob, err := json.Marshal(struct {
				E *EngineState    `json:"e"`
				M *MixPolicyState `json:"m"`
			}{engSt, mixSt})
			if err != nil {
				t.Fatal(err)
			}
			var decoded struct {
				E *EngineState    `json:"e"`
				M *MixPolicyState `json:"m"`
			}
			if err := json.Unmarshal(blob, &decoded); err != nil {
				t.Fatal(err)
			}
			eng2, m2 := build()
			if err := eng2.Restore(decoded.E); err != nil {
				t.Fatal(err)
			}
			if err := m2.restore(decoded.M); err != nil {
				t.Fatal(err)
			}
			got = append(got, collect(m2, rounds-kill)...)
			if !reflect.DeepEqual(got, want) {
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("resumed round %d differs:\ngot  %+v\nwant %+v", i, got[i], want[i])
					}
				}
			}
		})
	}
}

// armsRaceMatrix spans the kill/resume matrix across the three arms-race
// axes; each entry exercises a distinct (mix, estimator, dummies) cell
// with serialized state on every axis.
var armsRaceMatrix = []struct {
	name string
	mix  MixSpec
	est  EstimatorKind
	dum  DummyPolicy
}{
	{"threshold-ls-adaptive", MixSpec{Kind: MixThreshold}, EstimatorLeastSquares, DummyAdaptive},
	{"pool-classic-none", MixSpec{Kind: MixPool}, EstimatorClassic, DummyNone},
	{"pool-ls-uniform", MixSpec{Kind: MixPool, Retain: 0.7, Seed: 99}, EstimatorLeastSquares, DummyUniform},
	{"pool-ml-adaptive", MixSpec{Kind: MixPool}, EstimatorML, DummyAdaptive},
	{"timed-ml-none", MixSpec{Kind: MixTimed}, EstimatorML, DummyNone},
	{"timed-classic-adaptive", MixSpec{Kind: MixTimed}, EstimatorClassic, DummyAdaptive},
}

// TestDisclosureKillAndResumeMatrix extends the kill-and-resume
// property (checkpoint_test.go) across the arms-race axes: whatever the
// mix, estimator and dummy policy, a disclosure run killed at seeded
// random points and resumed through a JSON round trip must finish with
// a result identical to the uninterrupted run's.
func TestDisclosureKillAndResumeMatrix(t *testing.T) {
	for _, mc := range armsRaceMatrix {
		t.Run(mc.name, func(t *testing.T) {
			cfg := DisclosureConfig{
				Batch:      8,
				Mix:        mc.mix,
				Estimator:  mc.est,
				Dummies:    mc.dum,
				MaxRounds:  400,
				CheckEvery: 25,
				Workers:    1,
			}
			base, err := runDisclosure(buildEngine(t, 12, false), cfg)
			if err != nil {
				t.Fatal(err)
			}
			krng := xrand.New(777)
			kills := []int{1 + krng.Intn(cfg.MaxRounds-1), 1 + krng.Intn(cfg.MaxRounds-1)}
			for _, kill := range kills {
				run, err := buildEngine(t, 12, false).StartDisclosure(cfg)
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
				resumed, err := buildEngine(t, 12, false).ResumeDisclosure(cfg, &decoded)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := resumed.Step(cfg.MaxRounds); err != nil {
					t.Fatal(err)
				}
				if got := resumed.Result(); !reflect.DeepEqual(got, base) {
					t.Fatalf("kill=%d: resumed result differs from uninterrupted run\ngot  %+v\nwant %+v",
						kill, got, base)
				}
			}
		})
	}
}

// TestResumeDisclosureRejectsConfigMismatch: a snapshot records the
// mix/estimator/dummy configuration it was taken under, and resuming
// under any different configuration must fail with an error naming the
// disagreement — never silently fold one attack's accumulators into
// another.
func TestResumeDisclosureRejectsConfigMismatch(t *testing.T) {
	cfg := DisclosureConfig{
		Batch:      8,
		Mix:        MixSpec{Kind: MixPool, Retain: 0.6, Seed: 5},
		Estimator:  EstimatorLeastSquares,
		Dummies:    DummyUniform,
		MaxRounds:  400,
		CheckEvery: 25,
		Workers:    1,
	}
	run, err := buildEngine(t, 12, false).StartDisclosure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Step(60); err != nil {
		t.Fatal(err)
	}
	st, err := run.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(c *DisclosureConfig)
		want   string
	}{
		{"mix-kind", func(c *DisclosureConfig) { c.Mix = MixSpec{Kind: MixTimed} }, "pool mix"},
		{"mix-retain", func(c *DisclosureConfig) { c.Mix.Retain = 0.3 }, "parameters"},
		{"mix-seed", func(c *DisclosureConfig) { c.Mix.Seed = 6 }, "parameters"},
		{"estimator", func(c *DisclosureConfig) { c.Estimator = EstimatorML }, "least-squares estimator"},
		{"dummies", func(c *DisclosureConfig) { c.Dummies = DummyAdaptive }, "dummy policy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			other := cfg
			tc.mutate(&other)
			_, err := buildEngine(t, 12, false).ResumeDisclosure(other, st)
			if err == nil {
				t.Fatal("snapshot resumed under a mismatched config")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the disagreement (%q)", err, tc.want)
			}
		})
	}
	// The matching config still resumes.
	if _, err := buildEngine(t, 12, false).ResumeDisclosure(cfg, st); err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}
}

// TestDisclosureSnapshotBackCompat: the default threshold/classic/none
// run serializes no arms-race fields at all — its JSON is decodable by
// (and from) pre-arms-race snapshots — and a snapshot stripped of the
// new fields resumes as exactly that default configuration.
func TestDisclosureSnapshotBackCompat(t *testing.T) {
	cfg := disclosureCfg(false)
	run, err := buildEngine(t, 12, false).StartDisclosure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Step(80); err != nil {
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
	for _, field := range []string{`"mix"`, `"mix_state"`, `"estimator"`, `"dummies"`, `"ls"`, `"ml"`} {
		if strings.Contains(string(data), field) {
			t.Errorf("default-config snapshot serializes arms-race field %s", field)
		}
	}
	var decoded DisclosureState
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	resumed, err := buildEngine(t, 12, false).ResumeDisclosure(cfg, &decoded)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Step(cfg.MaxRounds); err != nil {
		t.Fatal(err)
	}
	base, err := runDisclosure(buildEngine(t, 12, false), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Result(); !reflect.DeepEqual(got, base) {
		t.Fatal("field-free snapshot did not resume as the default configuration")
	}
}

// TestDisclosureWorkerInvarianceMatrix: every arms-race cell's result is
// a pure function of the seeded population — never of the engine's
// generation parallelism — including the pool mix's private retention
// stream and the adaptive dummies' feedback loop.
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
			run := func(workers int) *DisclosureResult {
				c := cfg
				c.Workers = workers
				res, err := runDisclosure(buildEngine(t, 12, false), c)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			ref := run(1)
			for _, w := range []int{2, 4} {
				if got := run(w); !reflect.DeepEqual(got, ref) {
					t.Fatalf("workers=%d: result differs from workers=1", w)
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
