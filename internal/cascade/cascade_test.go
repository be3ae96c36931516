package cascade

import (
	"math"
	"reflect"
	"testing"

	"linkpad/internal/gateway"
	"linkpad/internal/netem"
	"linkpad/internal/xrand"
)

func TestStreamSource(t *testing.T) {
	up := netem.NewSliceStream([]float64{0.5, 1.25, 2.0, 2.1})
	src, err := NewStreamSource(up, 100)
	if err != nil {
		t.Fatal(err)
	}
	if src.Rate() != 100 {
		t.Errorf("rate = %v", src.Rate())
	}
	want := []float64{0.5, 0.75, 0.75, 0.1}
	var acc float64
	for i, w := range want {
		gap := src.Next()
		if math.Abs(gap-w) > 1e-12 {
			t.Errorf("gap %d = %v, want %v", i, gap, w)
		}
		acc += gap
	}
	// Accumulated gaps reproduce the upstream's absolute times, which is
	// what makes the downstream hop see arrivals at the true departures.
	if math.Abs(acc-2.1) > 1e-12 {
		t.Errorf("accumulated time %v, want 2.1", acc)
	}
	if _, err := NewStreamSource(nil, 1); err == nil {
		t.Error("nil upstream accepted")
	}
	if _, err := NewStreamSource(up, 0); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestPhasedPolicy(t *testing.T) {
	cit, err := gateway.NewCIT(10e-3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPhasedPolicy(cit, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	first := p.NextInterval()
	if first < 10e-3 || first >= 20e-3 {
		t.Errorf("first interval %v outside [tau, 2tau)", first)
	}
	for i := 0; i < 5; i++ {
		if v := p.NextInterval(); v != 10e-3 {
			t.Errorf("later interval %v, want tau", v)
		}
	}
	// Statistics delegate; the bound covers the one-off phase.
	if p.Mean() != 10e-3 || p.IntervalVar() != 0 {
		t.Errorf("delegated stats wrong: mean %v var %v", p.Mean(), p.IntervalVar())
	}
	if p.MaxInterval() < first {
		t.Errorf("MaxInterval %v below emitted first interval %v", p.MaxInterval(), first)
	}
	// Same seed, same phase: the policy is deterministic from its stream.
	q, err := NewPhasedPolicy(cit, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if q.NextInterval() != first {
		t.Error("phase not deterministic from the rng stream")
	}
	if _, err := NewPhasedPolicy(nil, xrand.New(1)); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := NewPhasedPolicy(cit, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestRecorder(t *testing.T) {
	r := Recorder{End: 3}
	r.Record(1) // no row attached yet: counts nothing
	r.Row = make([]float64, 3)
	for _, x := range []float64{0.5, 1, 2.5, 2.9, 3, -1} {
		r.Record(x)
	}
	// Whole-second windows from 0: 3 and -1 fall outside the row.
	if want := []float64{1, 1, 2}; !reflect.DeepEqual(r.Row, want) {
		t.Fatalf("row = %v, want %v", r.Row, want)
	}
	// An arrival past End counts nothing, even inside the row's last
	// window.
	r.End = 2.7
	r.Record(2.8)
	if want := []float64{1, 1, 2}; !reflect.DeepEqual(r.Row, want) {
		t.Fatalf("arrival past End counted: row = %v, want %v", r.Row, want)
	}
}

func TestEngineValidation(t *testing.T) {
	build := func(int) (*Route, error) {
		return &Route{Exit: netem.NewSliceStream(nil), Entry: &Recorder{}}, nil
	}
	if _, err := NewEngine(1, 0, build); err == nil {
		t.Error("one flow accepted")
	}
	if _, err := NewEngine(4, -1, build); err == nil {
		t.Error("negative hops accepted")
	}
	if _, err := NewEngine(4, 2, nil); err == nil {
		t.Error("nil builder accepted")
	}
	e, err := NewEngine(4, 2, build)
	if err != nil {
		t.Fatal(err)
	}
	if e.Flows() != 4 || e.Hops() != 2 {
		t.Errorf("engine dims %d/%d", e.Flows(), e.Hops())
	}
	if _, err := e.Route(-1); err == nil {
		t.Error("negative flow accepted")
	}
	if _, err := e.Route(4); err == nil {
		t.Error("out-of-range flow accepted")
	}
}
