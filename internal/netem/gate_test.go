package netem

import (
	"testing"

	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// gateSchedule builds a fresh schedule from a fixed stream seed so a
// test can probe the same presence clock the stream under test uses.
func gateSchedule(t *testing.T, seed uint64) *traffic.OnOffSchedule {
	t.Helper()
	s, err := traffic.NewOnOffSchedule(0.5, 0.5, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGateStream(t *testing.T) {
	// GateStream drops dark-interval packets outright: the output is the
	// exact up-interval subsequence of the input.
	const n = 20000
	in := periodicTimes(n, 1e-3)
	g, err := NewGateStream(NewSliceStream(in), gateSchedule(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	check := gateSchedule(t, 5)
	want := make([]float64, 0, n)
	for _, t2 := range in {
		if check.UpAt(t2) {
			want = append(want, t2)
		}
	}
	if len(want) == 0 || len(want) == n {
		t.Fatal("degenerate schedule; the scenario tests nothing")
	}
	for i, w := range want {
		if got := g.Next(); got != w {
			t.Fatalf("surviving packet %d = %v, want %v", i, got, w)
		}
	}
}
