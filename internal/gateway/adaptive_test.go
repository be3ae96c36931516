package gateway

import (
	"math"
	"testing"

	"linkpad/internal/stats"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

func TestNewAdaptiveValidation(t *testing.T) {
	if _, err := NewAdaptive(0, 40e-3, 3); err == nil {
		t.Error("zero busy interval accepted")
	}
	if _, err := NewAdaptive(10e-3, 10e-3, 3); err == nil {
		t.Error("idle == busy accepted")
	}
	if _, err := NewAdaptive(10e-3, 40e-3, 0); err == nil {
		t.Error("idleAfter 0 accepted")
	}
}

func TestAdaptiveStateMachine(t *testing.T) {
	a, err := NewAdaptive(10e-3, 40e-3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Busy until three consecutive empty observations.
	for i := 0; i < 3; i++ {
		if a.NextInterval() != 10e-3 {
			t.Fatalf("step %d: expected busy interval", i)
		}
		a.ObserveQueue(0)
	}
	if a.NextInterval() != 40e-3 {
		t.Fatal("expected idle interval after 3 empty observations")
	}
	// One queued packet snaps back to busy.
	a.ObserveQueue(2)
	if a.NextInterval() != 10e-3 {
		t.Fatal("expected busy interval after non-empty queue")
	}
	if a.Mean() != 10e-3 || a.IntervalVar() != 0 || a.MaxInterval() != 40e-3 {
		t.Error("adaptive metadata broken")
	}
}

func adaptiveGW(t testing.TB, rate float64, seed uint64) *Gateway {
	t.Helper()
	master := xrand.New(seed)
	src, err := traffic.NewPoisson(rate, master.Split())
	if err != nil {
		t.Fatal(err)
	}
	pol, err := NewAdaptive(10e-3, 40e-3, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{Policy: pol, Jitter: DefaultJitter(), Payload: src, RNG: master.Split()})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The paper's §2 critique of adaptive masking: the padded rate tracks the
// payload rate, so the PIAT *means* separate — a first-order leak that
// even the weakest feature sees.
func TestAdaptiveLeaksFirstOrder(t *testing.T) {
	const n = 100000
	meanLow := stats.Mean(adaptiveGW(t, 10, 1).PIATs(n))
	meanHigh := stats.Mean(adaptiveGW(t, 40, 2).PIATs(n))
	if meanLow <= meanHigh*1.2 {
		t.Errorf("adaptive PIAT means should separate strongly: low-rate %v vs high-rate %v",
			meanLow, meanHigh)
	}
}

// The flip side: adaptive padding saves bandwidth relative to CIT at the
// same busy interval.
func TestAdaptiveSavesBandwidth(t *testing.T) {
	g := adaptiveGW(t, 10, 3)
	for i := 0; i < 100000; i++ {
		g.Next()
	}
	adaptiveFires := float64(g.Stats().Fires)
	elapsed := adaptiveFires // fires * varying interval; compare rates via time
	_ = elapsed

	// CIT sends 100 pps; adaptive at 10 pps payload should send far fewer
	// packets over the same horizon. Compare packet rates via simulated
	// duration: duration = last departure.
	gCIT := newGW(t, mustCIT(t), DefaultJitter(), 10, 3)
	var lastCIT, lastAd float64
	for i := 0; i < 100000; i++ {
		lastCIT = gCIT.Next()
	}
	g2 := adaptiveGW(t, 10, 4)
	for i := 0; i < 100000; i++ {
		lastAd = g2.Next()
	}
	rateCIT := 100000 / lastCIT
	rateAd := 100000 / lastAd
	if rateAd > 0.6*rateCIT {
		t.Errorf("adaptive padded rate %v should be well below CIT's %v", rateAd, rateCIT)
	}
}

func TestPayloadDelayAccounting(t *testing.T) {
	g := newGW(t, mustCIT(t), DefaultJitter(), 40, 5)
	for i := 0; i < 200000; i++ {
		g.Next()
	}
	s := g.Stats()
	if s.PayloadSent == 0 {
		t.Fatal("no payload sent")
	}
	mean := s.MeanPayloadDelay()
	// Poisson arrivals into a 100 pps periodic server at 40% load: delay
	// is dominated by the residual interval, mean ~ tau/2 plus queueing.
	if mean < tau/4 || mean > 3*tau {
		t.Errorf("mean payload delay = %v, want around tau/2", mean)
	}
	if s.DelayMax < mean {
		t.Error("max delay below mean")
	}
	// The NetCamo-style bound holds against the measured worst case.
	bound := DelayBound(mustCIT(t), DefaultJitter(), s.MaxQueue)
	if s.DelayMax > bound {
		t.Errorf("measured max delay %v exceeds bound %v (maxQueue %d)", s.DelayMax, bound, s.MaxQueue)
	}
}

// DelayBound returns the worst-case queueing delay of a payload packet
// that arrives to find q packets already queued: it departs within q+1
// timer intervals, each at most policy.MaxInterval(), plus the bounded
// per-fire jitter. This is the NetCamo-style admission bound coupling
// padding rate to payload QoS, the reference measured delays must obey.
func DelayBound(policy TimerPolicy, j JitterModel, q int) float64 {
	slack := 4 * j.SigmaOS
	if j.BlockCap > 0 {
		slack += j.BlockCap
	}
	return float64(q+1)*policy.MaxInterval() + slack
}

func TestDelayBoundScalesWithQueue(t *testing.T) {
	c := mustCIT(t)
	j := DefaultJitter()
	b0 := DelayBound(c, j, 0)
	b5 := DelayBound(c, j, 5)
	if b5 <= b0 {
		t.Error("bound must grow with queue length")
	}
	if math.Abs(b5-b0-5*tau) > 1e-12 {
		t.Errorf("bound increment = %v, want 5*tau", b5-b0)
	}
}

func TestMeanPayloadDelayEmpty(t *testing.T) {
	var s Stats
	if s.MeanPayloadDelay() != 0 {
		t.Error("empty stats should report zero delay")
	}
}

// Queue compaction must preserve FIFO arrival order and accounting under
// sustained overload.
func TestQueueCompactionUnderLoad(t *testing.T) {
	master := xrand.New(6)
	src, err := traffic.NewPoisson(95, master.Split()) // just under capacity
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{Policy: mustCIT(t), Jitter: DefaultJitter(), Payload: src, RNG: master.Split()})
	if err != nil {
		t.Fatal(err)
	}
	prevDelay := -1.0
	_ = prevDelay
	for i := 0; i < 300000; i++ {
		g.Next()
	}
	s := g.Stats()
	if s.PayloadSent+uint64(g.QueueLen()) != s.Arrivals {
		t.Errorf("conservation broken after compaction: sent %d queued %d arrivals %d",
			s.PayloadSent, g.QueueLen(), s.Arrivals)
	}
	if s.DelaySum < 0 || s.DelayMax < 0 {
		t.Error("negative delay accounting")
	}
}
