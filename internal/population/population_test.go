package population

import (
	"testing"

	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// NewEngine assembles an eager engine over pre-built users and the shared
// recipient space: every user is warm from the start. It is the
// reference the lazily materializing NewLazyEngine is checked against.
// Each user's sources and RNG must be non-nil (Cover may be nil) and
// private to that user.
func NewEngine(users []User, recipients int) (*Engine, error) {
	return newEagerEngine(users, recipients, defaultShardSize)
}

// newEagerEngine is NewEngine with an explicit shard size.
func newEagerEngine(users []User, recipients, shardSize int) (*Engine, error) {
	e, err := newEngine(len(users), recipients, shardSize)
	if err != nil {
		return nil, err
	}
	var totalRate float64
	for u := range users {
		usr := &users[u]
		if err := validateUser(usr, u, recipients); err != nil {
			return nil, err
		}
		st := newUserState(usr)
		e.nextT[u], e.nextCover[u] = st.merge.NextFrom()
		e.warm[u] = st
		totalRate += st.merge.Rate()
	}
	return e, e.finishInit(totalRate)
}

// testUsers builds a deterministic heterogeneous population: two rate
// classes, per-user streams seeded by user index.
func testUsers(t *testing.T, n int, cover bool) ([]User, int) {
	t.Helper()
	const recipients = 40
	users := make([]User, n)
	for u := 0; u < n; u++ {
		master := xrand.New(uint64(1000 + u))
		rate := 10 + float64(u%2)*30
		msgs, err := traffic.NewPoisson(rate, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		var cov traffic.Source
		if cover {
			cov, err = traffic.NewPoisson(2*rate, master.Split())
			if err != nil {
				t.Fatal(err)
			}
		}
		prng := master.Split()
		prof, err := newProfile(recipients, 3, 0.7, prng)
		if err != nil {
			t.Fatal(err)
		}
		users[u] = User{Class: u % 2, Messages: msgs, Cover: cov, Profile: prof, RNG: prng}
	}
	return users, recipients
}

func TestProfileDraws(t *testing.T) {
	rng := xrand.New(42)
	p, err := newProfile(50, 4, 0.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	cs := p.Contacts()
	if len(cs) != 4 {
		t.Fatalf("got %d contacts, want 4", len(cs))
	}
	seen := map[int32]bool{}
	for _, c := range cs {
		if c < 0 || c >= 50 {
			t.Fatalf("contact %d out of range", c)
		}
		if seen[c] {
			t.Fatalf("duplicate contact %d", c)
		}
		seen[c] = true
	}
	// The heaviest contact must dominate the draws, and the contact set
	// must receive about the configured mass.
	counts := map[int32]int{}
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[p.Draw(rng)]++
	}
	onContacts := 0
	for _, c := range cs {
		onContacts += counts[c]
	}
	frac := float64(onContacts) / draws
	// 0.8 on contacts plus the uniform background's 4/50 of the rest.
	want := 0.8 + 0.2*4.0/50
	if frac < want-0.02 || frac > want+0.02 {
		t.Errorf("contact mass = %.3f, want ≈ %.3f", frac, want)
	}
	for i := 1; i < len(cs); i++ {
		if counts[cs[0]] <= counts[cs[i]] {
			t.Errorf("contact 0 (%d draws) should dominate contact %d (%d draws)",
				counts[cs[0]], i, counts[cs[i]])
		}
	}
}

func TestProfileValidation(t *testing.T) {
	rng := xrand.New(1)
	cases := []struct {
		recipients, contacts int
		weight               float64
	}{
		{1, 1, 0.5},
		{10, 0, 0.5},
		{10, 6, 0.5}, // more than recipients/2
		{10, 2, 0},
		{10, 2, 1.1},
	}
	for _, c := range cases {
		if _, err := NewProfileShape(c.recipients, c.contacts, c.weight); err == nil {
			t.Errorf("NewProfileShape(%d, %d, %v) should fail", c.recipients, c.contacts, c.weight)
		}
	}
	if _, err := newProfile(10, 2, 0.5, nil); err == nil {
		t.Error("nil rng should fail")
	}
	if _, err := newProfile(10, 2, 0.5, rng); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
}

// newProfile draws one profile of a freshly validated shape.
func newProfile(recipients, contacts int, weight float64, rng *xrand.Rand) (Profile, error) {
	shape, err := NewProfileShape(recipients, contacts, weight)
	if err != nil {
		return Profile{}, err
	}
	return shape.NewProfile(rng)
}

// The merged round stream must be identical at any generation width:
// every user's events are a pure function of its own streams, and the
// merge is a deterministic reduction.
func TestEngineWorkerInvariance(t *testing.T) {
	const rounds = 400
	const batch = 8
	run := func(workers int) []Round {
		users, recipients := testUsers(t, 24, true)
		e, err := NewEngine(users, recipients)
		if err != nil {
			t.Fatal(err)
		}
		e.SetWorkers(workers)
		out := make([]Round, rounds)
		for i := range out {
			var r Round
			if err := e.NextRound(batch, &r); err != nil {
				t.Fatal(err)
			}
			out[i] = Round{
				Users: append([]int32(nil), r.Users...),
				Rcpts: append([]int32(nil), r.Rcpts...),
				Dummy: append([]bool(nil), r.Dummy...),
			}
		}
		return out
	}
	ref := run(1)
	for _, w := range []int{2, 4, 0} {
		got := run(w)
		for i := range ref {
			for j := range ref[i].Users {
				if got[i].Users[j] != ref[i].Users[j] ||
					got[i].Rcpts[j] != ref[i].Rcpts[j] ||
					got[i].Dummy[j] != ref[i].Dummy[j] {
					t.Fatalf("workers=%d: round %d message %d differs", w, i, j)
				}
			}
		}
	}
}

// The round loop — NextRound, the dummy policy and the SDA estimator
// update — must not allocate in steady state (single-worker generation
// exercises the sequential refill path; parallel refills allocate only
// goroutine bookkeeping per slab, never per round). The ML cell runs
// adaptive dummies at one worker, so every round refreshes EM through
// the inline parallel phase.
func TestRoundLoopAllocFree(t *testing.T) {
	cases := []struct {
		name string
		cfg  DisclosureConfig
	}{
		{"classic", DisclosureConfig{Batch: 8, Targets: []int{0, 5, 10}}},
		{"ml-adaptive", DisclosureConfig{Batch: 8, Targets: []int{0, 5, 10},
			Estimator: EstimatorML, Dummies: DummyAdaptive, Workers: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			users, recipients := testUsers(t, 16, true)
			e, err := NewEngine(users, recipients)
			if err != nil {
				t.Fatal(err)
			}
			e.SetWorkers(1)
			d, err := newDisclosure(e, tc.cfg.withDefaults(len(users)))
			if err != nil {
				t.Fatal(err)
			}
			var r Round
			round := func() {
				if err := e.NextRound(8, &r); err != nil {
					t.Fatal(err)
				}
				d.applyDummies(&r)
				d.observe(&r)
			}
			// Warm up buffers (slab, queue, round slices, estimator
			// supports) past their growth.
			for i := 0; i < 500; i++ {
				round()
			}
			d.checkpoint(500)
			if avg := testing.AllocsPerRun(300, round); avg > 0.05 {
				t.Errorf("round loop allocates %.3f objects/round, want 0", avg)
			}
			// Checkpoints reuse the estimate and top-k scratch; the ML
			// estimators are dirty, so each one refreshes.
			avg := testing.AllocsPerRun(50, func() {
				d.observe(&r)
				d.checkpoint(1000)
			})
			if avg > 0 {
				t.Errorf("checkpoint allocates %.3f objects, want 0", avg)
			}
		})
	}
}

func TestEngineValidation(t *testing.T) {
	users, recipients := testUsers(t, 4, false)
	if _, err := NewEngine(users[:1], recipients); err == nil {
		t.Error("single user should fail")
	}
	if _, err := NewEngine(users, 1); err == nil {
		t.Error("single recipient should fail")
	}
	broken := make([]User, len(users))
	copy(broken, users)
	broken[2].Messages = nil
	if _, err := NewEngine(broken, recipients); err == nil {
		t.Error("nil message source should fail")
	}
	copy(broken, users)
	broken[1].Profile = Profile{}
	if _, err := NewEngine(broken, recipients); err == nil {
		t.Error("a profile without a shape should fail")
	}
	e, err := NewEngine(users, recipients)
	if err != nil {
		t.Fatal(err)
	}
	var r Round
	if err := e.NextRound(0, &r); err == nil {
		t.Error("zero batch should fail")
	}
}
