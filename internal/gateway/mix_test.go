package gateway

import (
	"math"
	"testing"

	"linkpad/internal/stats"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

func newMix(t testing.TB, k int, rate float64, seed uint64) *Mix {
	t.Helper()
	master := xrand.New(seed)
	src, err := traffic.NewPoisson(rate, master.Split())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMix(MixConfig{
		K:           k,
		SendSpacing: 120e-6,
		Payload:     src,
		Jitter:      DefaultJitter(),
		RNG:         master.Split(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMixValidation(t *testing.T) {
	src, err := traffic.NewPoisson(10, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []MixConfig{
		{K: 1, SendSpacing: 1e-4, Payload: src, RNG: xrand.New(2)},
		{K: 8, SendSpacing: 0, Payload: src, RNG: xrand.New(2)},
		{K: 8, SendSpacing: 1e-4, RNG: xrand.New(2)},
		{K: 8, SendSpacing: 1e-4, Payload: src},
		{K: 8, SendSpacing: 1e-4, Payload: src, RNG: xrand.New(2), Jitter: JitterModel{SigmaOS: -1}},
	}
	for i, cfg := range cases {
		if _, err := NewMix(cfg); err == nil {
			t.Errorf("case %d: invalid mix config accepted", i)
		}
	}
}

func TestMixDeparturesIncrease(t *testing.T) {
	m := newMix(t, 8, 40, 3)
	prev := math.Inf(-1)
	for i := 0; i < 10000; i++ {
		out := m.Next()
		if out <= prev {
			t.Fatalf("departure %d not increasing", i)
		}
		prev = out
	}
	if m.Packets() != 10000 {
		t.Errorf("packets = %d", m.Packets())
	}
	if got, want := m.bursts, uint64(10000/8); got != want {
		t.Errorf("bursts = %d, want %d", got, want)
	}
}

// The mix's first-order leak: mean inter-burst gap = K/λ, so the mean
// PIAT of the padded stream is ~1/λ — directly proportional to the
// payload rate. (Compare the timer gateways, whose mean PIAT is τ for
// every rate.)
func TestMixLeaksRateInMeanPIAT(t *testing.T) {
	const n = 80000
	collect := func(rate float64, seed uint64) float64 {
		m := newMix(t, 8, rate, seed)
		prev := m.Next()
		var mo stats.Moments
		for i := 0; i < n; i++ {
			cur := m.Next()
			mo.Add(cur - prev)
			prev = cur
		}
		return mo.Mean()
	}
	mean10 := collect(10, 4)
	mean40 := collect(40, 5)
	if math.Abs(mean10-0.1)/0.1 > 0.05 {
		t.Errorf("mean PIAT at 10pps = %v, want ~1/10", mean10)
	}
	if math.Abs(mean40-0.025)/0.025 > 0.05 {
		t.Errorf("mean PIAT at 40pps = %v, want ~1/40", mean40)
	}
	if mean10 < 3*mean40 {
		t.Errorf("rates should separate by ~4x: %v vs %v", mean10, mean40)
	}
}

// Inter-burst gaps are Erlang(K, λ): mean K/λ, CV 1/sqrt(K).
func TestMixBurstGapsErlang(t *testing.T) {
	const k, rate = 8, 40.0
	m := newMix(t, k, rate, 6)
	var gaps stats.Moments
	var lastBurstStart float64
	first := true
	for b := 0; b < 20000; b++ {
		start := m.Next() // first packet of the burst
		for i := 1; i < k; i++ {
			m.Next()
		}
		if !first {
			gaps.Add(start - lastBurstStart)
		}
		first = false
		lastBurstStart = start
	}
	wantMean := k / rate
	if math.Abs(gaps.Mean()-wantMean)/wantMean > 0.03 {
		t.Errorf("burst gap mean = %v, want %v", gaps.Mean(), wantMean)
	}
	cv := gaps.StdDev() / gaps.Mean()
	if math.Abs(cv-1/math.Sqrt(k)) > 0.03 {
		t.Errorf("burst gap CV = %v, want %v", cv, 1/math.Sqrt(k))
	}
}

// The mix ingress tap mirrors the gateway one: every collected payload
// arrival, in order, without disturbing departures.
func TestMixArrivalTap(t *testing.T) {
	build := func(tap func(float64)) *Mix {
		payload, err := traffic.NewPoisson(40, xrand.New(21))
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMix(MixConfig{
			K:           5,
			SendSpacing: 120e-6,
			Payload:     payload,
			Jitter:      DefaultJitter(),
			RNG:         xrand.New(22),
			ArrivalTap:  tap,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	var taps []float64
	tapped := build(func(ts float64) { taps = append(taps, ts) })
	plain := build(nil)
	for i := 0; i < 1000; i++ {
		if tapped.Next() != plain.Next() {
			t.Fatal("the tap must not disturb the departure stream")
		}
	}
	if uint64(len(taps)) != tapped.Packets() {
		t.Fatalf("tap saw %d arrivals, mix emitted %d packets", len(taps), tapped.Packets())
	}
	for i := 1; i < len(taps); i++ {
		if taps[i] < taps[i-1] {
			t.Fatalf("tap times not monotone at %d", i)
		}
	}
}
