package traffic

import (
	"math"
	"testing"

	"linkpad/internal/xrand"
)

func TestOnOffScheduleValidation(t *testing.T) {
	if _, err := NewOnOffSchedule(0, 1, xrand.New(1)); err == nil {
		t.Error("zero mean up should fail")
	}
	if _, err := NewOnOffSchedule(1, -1, xrand.New(1)); err == nil {
		t.Error("negative mean down should fail")
	}
	if _, err := NewOnOffSchedule(1, 1, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestOnOffScheduleDeterministic(t *testing.T) {
	// Two schedules built from the same stream seed answer identically,
	// even when queried in different orders: a schedule is a pure
	// function of its stream.
	a, err := NewOnOffSchedule(2, 1, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewOnOffSchedule(2, 1, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	// a walks forward; b probes the far future first, then walks back.
	b.UpAt(100)
	for i := 0; i <= 1000; i++ {
		at := float64(i) * 0.1
		if a.UpAt(at) != b.UpAt(at) {
			t.Fatalf("schedules diverge at t=%v", at)
		}
	}
}

// TestOnOffScheduleClone: a copy taken mid-stream answers every query
// as the original does, and extending either leaves the other's memo
// untouched.
func TestOnOffScheduleClone(t *testing.T) {
	a, err := NewOnOffSchedule(2, 1, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	a.UpAt(10)
	c := a.Clone()
	// The copy runs ahead first; the original then walks the same span.
	c.UpAt(200)
	if len(a.trans) >= len(c.trans) {
		t.Fatal("extending the copy extended the original")
	}
	for i := 0; i <= 2000; i++ {
		at := float64(i) * 0.1
		if a.UpAt(at) != c.UpAt(at) {
			t.Fatalf("copy diverges from the original at t=%v", at)
		}
	}
}

func TestOnOffScheduleStationaryFraction(t *testing.T) {
	// The time-average availability over many cycles approaches
	// MeanUp/(MeanUp+MeanDown), and the stationary start keeps the early
	// prefix unbiased too.
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		meanUp := frac
		meanDown := 1 - frac
		var up, n int
		for seed := uint64(1); seed <= 20; seed++ {
			s, err := NewOnOffSchedule(meanUp, meanDown, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if s.UpFraction() != frac {
				t.Fatalf("UpFraction = %v, want %v", s.UpFraction(), frac)
			}
			for i := 0; i < 2000; i++ {
				if s.UpAt(float64(i) * 0.05) {
					up++
				}
				n++
			}
		}
		got := float64(up) / float64(n)
		if math.Abs(got-frac) > 0.05 {
			t.Errorf("stationary availability at frac %v: measured %v", frac, got)
		}
	}
}

func TestGatedRate(t *testing.T) {
	// Gating a Poisson source by a 50% schedule halves the long-run rate;
	// surviving arrivals all land in UP intervals.
	src, err := NewPoisson(100, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewOnOffSchedule(1, 1, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGated(src, sched)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rate() != 50 {
		t.Errorf("Rate() = %v, want 50", g.Rate())
	}
	check, err := NewOnOffSchedule(1, 1, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	const n = 50000
	var now, last float64
	for i := 0; i < n; i++ {
		gap := g.Next()
		if gap <= 0 {
			t.Fatalf("non-positive gap %v at %d", gap, i)
		}
		now += gap
		if !check.UpAt(now) {
			t.Fatalf("surviving arrival at %v falls in a DOWN interval", now)
		}
		last = now
	}
	if got := n / last; math.Abs(got-50)/50 > 0.05 {
		t.Errorf("measured gated rate %v, want ~50", got)
	}
}
