package active

import (
	"math"
	"testing"

	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

func testKey(t *testing.T, chips int, period float64, seed uint64) *Key {
	t.Helper()
	k, err := NewKey(chips, period, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestKeyDeterministicAndCyclic(t *testing.T) {
	k1 := testKey(t, 32, 0.5, 7)
	k2 := testKey(t, 32, 0.5, 7)
	on := 0
	for s := 0; s < 32; s++ {
		if k1.Chip(s) != k2.Chip(s) {
			t.Fatalf("chip %d differs between identically seeded keys", s)
		}
		if c := k1.Chip(s); c != 1 && c != -1 {
			t.Fatalf("chip %d = %v, want ±1", s, c)
		}
		if k1.Chip(s) != k1.Chip(s+32) || k1.Chip(s) != k1.Chip(s+64) {
			t.Fatalf("chip %d not cyclic", s)
		}
		if k1.Chip(s) > 0 {
			on++
		}
	}
	if got := k1.OnFraction(); got != float64(on)/32 {
		t.Fatalf("OnFraction = %v, want %v", got, float64(on)/32)
	}
	// A fair 32-chip key is essentially never all-on or all-off; the
	// specific seed used here must have both kinds so Marked means
	// something.
	if on == 0 || on == 32 {
		t.Fatalf("degenerate test key: %d of 32 chips on", on)
	}
	if k1.Marked(-1) {
		t.Fatal("negative times must not be marked")
	}
	for s := 0; s < 32; s++ {
		mid := (float64(s) + 0.5) * k1.Period()
		if k1.Marked(mid) != (k1.Chip(s) > 0) {
			t.Fatalf("Marked(%v) disagrees with Chip(%d)", mid, s)
		}
	}

	if _, err := NewKey(1, 0.5, xrand.New(1)); err == nil {
		t.Error("single-chip key should fail")
	}
	if _, err := NewKey(8, 0, xrand.New(1)); err == nil {
		t.Error("zero period should fail")
	}
	if _, err := NewKey(8, 0.5, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

// collect drains n arrivals of a source into absolute times.
func collect(src traffic.Source, n int) []float64 {
	out := make([]float64, n)
	var now float64
	for i := range out {
		now += src.Next()
		out[i] = now
	}
	return out
}

func TestDelaySourceShiftsMarkedSlots(t *testing.T) {
	key := testKey(t, 16, 0.25, 3)
	const amp = 0.02
	mk := func() traffic.Source {
		cbr, err := traffic.CBRModel(40, 0)
		if err != nil {
			t.Fatal(err)
		}
		return &cbr
	}
	plain := collect(mk(), 400)
	ds, err := NewDelaySource(mk(), key, amp)
	if err != nil {
		t.Fatal(err)
	}
	marked := collect(ds, 400)
	prev := math.Inf(-1)
	for i, tm := range marked {
		if tm <= prev {
			t.Fatalf("arrival %d not strictly increasing: %v after %v", i, tm, prev)
		}
		prev = tm
		want := plain[i]
		if key.Marked(plain[i]) {
			want += amp
		}
		// A shifted packet may be pushed further to preserve order, but
		// only by nanoseconds.
		if tm < want || tm > want+1e-6 {
			t.Fatalf("arrival %d = %v, want %v (marked=%v)", i, tm, want, key.Marked(plain[i]))
		}
	}
	st := ds.Stats()
	if st.Payload != 400 {
		t.Fatalf("Payload = %d, want 400", st.Payload)
	}
	if st.Delayed == 0 || st.Delayed == 400 {
		t.Fatalf("Delayed = %d, want a proper subset of 400", st.Delayed)
	}
	if got, want := st.DelaySum, float64(st.Delayed)*amp; math.Abs(got-want) > 1e-12 {
		t.Fatalf("DelaySum = %v, want %v", got, want)
	}
	if ds.Rate() != 40 {
		t.Fatalf("Rate = %v, want the payload rate", ds.Rate())
	}

	if _, err := NewDelaySource(nil, key, amp); err == nil {
		t.Error("nil source should fail")
	}
	if _, err := NewDelaySource(mk(), nil, amp); err == nil {
		t.Error("nil key should fail")
	}
	if _, err := NewDelaySource(mk(), key, 0); err == nil {
		t.Error("zero amplitude should fail")
	}
}

func TestChaffSourceRunsOnlyInMarkedSlots(t *testing.T) {
	key := testKey(t, 16, 0.25, 5)
	const rate = 80.0
	cs, err := NewChaffSource(key, rate, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	times := collect(cs, 2000)
	for i, tm := range times {
		if i > 0 && tm <= times[i-1] {
			t.Fatalf("chaff %d not increasing", i)
		}
		if !key.Marked(tm) {
			t.Fatalf("chaff %d at %v lands in an unmarked slot", i, tm)
		}
	}
	// The long-run rate matches rate × duty cycle.
	span := times[len(times)-1]
	got := float64(len(times)) / span
	want := cs.Rate()
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("long-run rate %v, want ≈ %v", got, want)
	}
	if want != rate*key.OnFraction() {
		t.Fatalf("Rate() = %v, want %v", want, rate*key.OnFraction())
	}
	if cs.Stats().Chaff != 2000 {
		t.Fatalf("Chaff = %d, want 2000", cs.Stats().Chaff)
	}

	if _, err := NewChaffSource(nil, rate, xrand.New(1)); err == nil {
		t.Error("nil key should fail")
	}
	if _, err := NewChaffSource(key, 0, xrand.New(1)); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := NewChaffSource(key, rate, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

// Two identically seeded chaff sources generate the identical stream —
// the determinism contract core's flow builders rely on.
func TestChaffSourceDeterministic(t *testing.T) {
	key := testKey(t, 32, 0.5, 9)
	mk := func() []float64 {
		cs, err := NewChaffSource(key, 25, xrand.New(42))
		if err != nil {
			t.Fatal(err)
		}
		return collect(cs, 500)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chaff stream diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEngineValidation(t *testing.T) {
	decoys := make([]*Key, 8)
	for i := range decoys {
		decoys[i] = testKey(t, 16, 0.5, uint64(100+i))
	}
	build := func(int) (*Flow, error) { return nil, nil }
	if _, err := NewEngine(1, 0, ModeChaff, 16, 0.5, decoys, build); err == nil {
		t.Error("single flow should fail")
	}
	if _, err := NewEngine(4, -1, ModeChaff, 16, 0.5, decoys, build); err == nil {
		t.Error("negative hops should fail")
	}
	if _, err := NewEngine(4, 0, Mode(9), 16, 0.5, decoys, build); err == nil {
		t.Error("unknown mode should fail")
	}
	if _, err := NewEngine(4, 0, ModeChaff, 16, 0.5, decoys[:4], build); err == nil {
		t.Error("too few decoys should fail")
	}
	bad := append(append([]*Key(nil), decoys[:7]...), testKey(t, 8, 0.5, 200))
	if _, err := NewEngine(4, 0, ModeChaff, 16, 0.5, bad, build); err == nil {
		t.Error("geometry-mismatched decoy should fail")
	}
	if _, err := NewEngine(4, 0, ModeChaff, 16, 0.5, decoys, nil); err == nil {
		t.Error("nil builder should fail")
	}
	e, err := NewEngine(4, 0, ModeChaff, 16, 0.5, decoys, build)
	if err != nil {
		t.Fatal(err)
	}
	if e.Flows() != 4 || e.hops != 0 || e.mode != ModeChaff {
		t.Fatalf("engine accessors: %d flows, %d hops, mode %v", e.Flows(), e.hops, e.mode)
	}
	if _, err := e.Flow(4); err == nil {
		t.Error("out-of-range flow should fail")
	}
}
