package netem

import (
	"testing"

	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// outageSchedule builds a fresh schedule from a fixed stream seed so a
// test can probe the same fault clock the stream under test uses.
func outageSchedule(t *testing.T, seed uint64) *traffic.OnOffSchedule {
	t.Helper()
	s, err := traffic.NewOnOffSchedule(0.5, 0.5, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOutageStreamValidation(t *testing.T) {
	up := NewSliceStream(periodicTimes(4, 1e-3))
	sched := outageSchedule(t, 1)
	if _, err := NewOutageStream(nil, sched, 0, 0, nil); err == nil {
		t.Error("nil upstream should fail")
	}
	if _, err := NewOutageStream(up, nil, 0, 0, nil); err == nil {
		t.Error("nil schedule should fail")
	}
	if _, err := NewOutageStream(up, sched, -1, 0, nil); err == nil {
		t.Error("negative backoff should fail")
	}
	if _, err := NewOutageStream(up, sched, 0.1, 0.2, nil); err == nil {
		t.Error("backoff and spare together should fail")
	}
}

func TestOutageStreamWaitPolicy(t *testing.T) {
	// Wait-for-recovery: a packet hitting a dark interval departs exactly
	// at the recovery instant; up-interval packets are untouched. FIFO
	// holds throughout.
	const n = 20000
	in := periodicTimes(n, 1e-3)
	o, err := NewOutageStream(NewSliceStream(in), outageSchedule(t, 2), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := outageSchedule(t, 2)
	var last float64
	hit := 0
	for i, want := range in {
		out := o.Next()
		if out < last {
			t.Fatalf("FIFO violated at packet %d: %v < %v", i, out, last)
		}
		prev := last
		last = out
		if check.UpAt(want) {
			if out != want && out != prev {
				t.Fatalf("up-interval packet %d moved from %v to %v without a queue ahead", i, want, out)
			}
			continue
		}
		hit++
		if recov := check.NextUpAfter(want); out < recov {
			t.Fatalf("packet %d departed at %v before recovery %v", i, out, recov)
		}
	}
	gotHit, diverted := o.affected, o.diverted
	if gotHit != hit {
		t.Errorf("affected = %d, schedule says %d packets hit outages", gotHit, hit)
	}
	if diverted != 0 {
		t.Errorf("wait policy diverted %d packets", diverted)
	}
	if hit == 0 {
		t.Fatal("no packet hit an outage; the scenario tests nothing")
	}
}

func TestOutageStreamBackoffOvershoot(t *testing.T) {
	// Retry/backoff: the first successful attempt lies at t + b·2^(k−1)
	// for some k >= 1, lands in an up interval, and overshoots the
	// recovery instant by less than the final step — the policy's leak.
	const n = 20000
	const b = 0.01
	in := periodicTimes(n, 1e-3)
	o, err := NewOutageStream(NewSliceStream(in), outageSchedule(t, 3), b, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := outageSchedule(t, 3)
	var last float64
	overshot := 0
	for i, want := range in {
		out := o.Next()
		if out < last {
			t.Fatalf("FIFO violated at packet %d", i)
		}
		prev := last
		last = out
		if check.UpAt(want) {
			continue
		}
		if out == prev {
			continue // FIFO clamp, not an attempt time
		}
		// out = want + b·2^(k−1): recover the step and check the ladder.
		step := b
		for want+step < out {
			step += step
		}
		if want+step != out {
			t.Fatalf("packet %d departed at %v, not on the backoff ladder from %v", i, out, want)
		}
		if !check.UpAt(out) {
			t.Fatalf("packet %d retried into a dark interval at %v", i, out)
		}
		if recov := check.NextUpAfter(want); out > recov {
			overshot++
			if out-recov >= step {
				t.Fatalf("packet %d overshot recovery %v by a full step at %v", i, recov, out)
			}
		}
	}
	if overshot == 0 {
		t.Error("backoff never overshot a recovery instant; the leak is untested")
	}
}

func TestOutageStreamSparePolicy(t *testing.T) {
	// Failover: affected packets shift by exactly SpareDelay (modulo the
	// FIFO clamp); every affected packet counts as diverted.
	const n = 10000
	const spare = 0.02
	in := periodicTimes(n, 1e-3)
	o, err := NewOutageStream(NewSliceStream(in), outageSchedule(t, 4), 0, spare, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := outageSchedule(t, 4)
	var last float64
	for i, want := range in {
		out := o.Next()
		if out < last {
			t.Fatalf("FIFO violated at packet %d", i)
		}
		prev := last
		last = out
		if check.UpAt(want) {
			continue
		}
		if out != want+spare && out != prev {
			t.Fatalf("packet %d departed at %v, want %v (spare) or %v (clamp)", i, out, want+spare, prev)
		}
	}
	hit, diverted := o.affected, o.diverted
	if hit == 0 || hit != diverted {
		t.Errorf("affected = (%d, %d): every affected packet should divert", hit, diverted)
	}
}

func TestGateStream(t *testing.T) {
	// GateStream drops dark-interval packets outright: the output is the
	// exact up-interval subsequence of the input.
	const n = 20000
	in := periodicTimes(n, 1e-3)
	g, err := NewGateStream(NewSliceStream(in), outageSchedule(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	check := outageSchedule(t, 5)
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
