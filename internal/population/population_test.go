package population

import (
	"reflect"
	"testing"

	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// NewEngine assembles an eager engine over pre-built users and the shared
// recipient space: every user is warm from the start. It is the
// reference the lazily materializing NewLazyEngine is checked against.
// Each user must have a message source (Cover may be the zero Model)
// and a profile shape.
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
		sh := u / e.shardSize
		i, err := e.install(sh, u, &users[u])
		if err != nil {
			return nil, err
		}
		st := e.gens[sh].warm.at(i)
		t, cover := st.merge.NextFrom()
		e.cur[u] = cursor{t: t, slot: i, cover: cover}
		totalRate += st.merge.Rate()
	}
	return e, e.finishInit(totalRate)
}

// testUsers builds a deterministic heterogeneous population: two rate
// classes, per-user streams seeded by user index.
func testUsers(t *testing.T, n int, cover bool) ([]User, int) {
	t.Helper()
	const recipients = 40
	shape := testShape(t, recipients)
	users := make([]User, n)
	for u := 0; u < n; u++ {
		rate, coverRate := 10+float64(u%2)*30, 0.0
		if cover {
			coverRate = 2 * rate
		}
		var err error
		users[u], err = poissonUser(xrand.New(uint64(1000+u)), u%2, rate, coverRate, shape)
		if err != nil {
			t.Fatal(err)
		}
	}
	return users, recipients
}

// testShape is the tests' profile shape: three contacts carrying 0.7 of
// the mass among recipients.
func testShape(t testing.TB, recipients int) *ProfileShape {
	t.Helper()
	shape, err := NewProfileShape(recipients, 3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	return shape
}

// poissonUser builds a user on three splits of master, in this order: a
// Poisson payload at rate, a Poisson cover at coverRate (no split and no
// cover when it is 0), and its profile stream.
func poissonUser(master *xrand.Rand, class int, rate, coverRate float64, shape *ProfileShape) (User, error) {
	msgs, err := traffic.PoissonModel(rate)
	if err != nil {
		return User{}, err
	}
	msgs.Start(master.Split().Stream)
	usr := User{Class: class, Messages: msgs, Shape: shape}
	if coverRate > 0 {
		if usr.Cover, err = traffic.PoissonModel(coverRate); err != nil {
			return User{}, err
		}
		usr.Cover.Start(master.Split().Stream)
	}
	usr.RNG = master.Split().Stream
	return usr, nil
}

// contactsFrom draws the contact set the engine draws for a user whose
// profile stream is rng, leaving rng unchanged.
func contactsFrom(shape *ProfileShape, rng xrand.Stream) []int32 {
	cs := make([]int32, len(shape.cum))
	shape.drawContacts(&rng, cs)
	return cs
}

func TestProfileDraws(t *testing.T) {
	rng := xrand.NewStream(42)
	shape, err := NewProfileShape(50, 4, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	cs := make([]int32, 4)
	shape.drawContacts(&rng, cs)
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
		counts[shape.draw(cs, &rng)]++
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
	if _, err := NewProfileShape(10, 2, 0.5); err != nil {
		t.Errorf("valid profile shape rejected: %v", err)
	}
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

// TestArenaElementsHoldNoPointers: the element types of a warm arena's
// chunks — the slot, with the payload and cover Models inside it, and the
// contact set's int32 — hold no pointer, so the collector never scans a
// chunk. A pointer field added to any of them fails here, not as a
// quiet return of garbage-collection cost.
func TestArenaElementsHoldNoPointers(t *testing.T) {
	var a warmArena
	for _, typ := range []reflect.Type{
		reflect.TypeOf(a.slots).Elem().Elem().Elem(),
		reflect.TypeOf(a.contacts).Elem().Elem(),
		reflect.TypeOf(traffic.Model{}),
	} {
		if path := pointerPath(typ, typ.String()); path != "" {
			t.Errorf("arena element %v holds a pointer at %s", typ, path)
		}
	}
}

// pointerPath returns where typ holds a pointer the collector would
// scan, or "" if it holds none.
func pointerPath(typ reflect.Type, at string) string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.Slice, reflect.String:
		return at
	case reflect.Array:
		return pointerPath(typ.Elem(), at+"[]")
	case reflect.Struct:
		for i := range typ.NumField() {
			f := typ.Field(i)
			if p := pointerPath(f.Type, at+"."+f.Name); p != "" {
				return p
			}
		}
	}
	return ""
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
	broken[2].Messages = traffic.Model{}
	if _, err := NewEngine(broken, recipients); err == nil {
		t.Error("a user without a message source should fail")
	}
	copy(broken, users)
	broken[1].Shape = nil
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
