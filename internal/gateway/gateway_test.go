package gateway

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"linkpad/internal/stats"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

const tau = 10e-3

// PIATs collects the next n packet inter-arrival times of the padded
// stream as observed at the gateway output (σ_net = 0).
func (g *Gateway) PIATs(n int) []float64 {
	out := make([]float64, n)
	prev := g.Next()
	for i := 0; i < n; i++ {
		t := g.Next()
		out[i] = t - prev
		prev = t
	}
	return out
}

// blockMeanCapped returns E[min(X, cap)], the first blocking moment
// beside the blockSecondMoment the jitter model uses.
func (j JitterModel) blockMeanCapped() float64 {
	m := j.BlockMean
	if m == 0 {
		return 0
	}
	if j.BlockCap <= 0 {
		return m
	}
	return m * (1 - math.Exp(-j.BlockCap/m))
}

func mustCIT(t testing.TB) *CIT {
	t.Helper()
	c, err := NewCIT(tau)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newGW(t testing.TB, policy TimerPolicy, j JitterModel, rate float64, seed uint64) *Gateway {
	t.Helper()
	master := xrand.New(seed)
	src, err := traffic.NewPoisson(rate, master.Split())
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{Policy: policy, Jitter: j, Payload: src, RNG: master.Split()})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPolicyValidation(t *testing.T) {
	if _, err := NewCIT(0); err == nil {
		t.Error("want error for zero CIT period")
	}
	if _, err := NewVIT(0, 1e-6, xrand.New(1)); err == nil {
		t.Error("want error for zero VIT mean")
	}
	if _, err := NewVIT(tau, -1, xrand.New(1)); err == nil {
		t.Error("want error for negative sigma")
	}
	if _, err := NewVIT(tau, 1e-6, nil); err == nil {
		t.Error("want error for nil rng")
	}
}

func TestConfigValidation(t *testing.T) {
	src, err := traffic.NewPoisson(10, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	c := mustCIT(t)
	if _, err := New(Config{Jitter: DefaultJitter(), Payload: src, RNG: xrand.New(2)}); err == nil {
		t.Error("want error for nil policy")
	}
	if _, err := New(Config{Policy: c, Jitter: DefaultJitter(), RNG: xrand.New(2)}); err == nil {
		t.Error("want error for nil payload")
	}
	if _, err := New(Config{Policy: c, Jitter: DefaultJitter(), Payload: src}); err == nil {
		t.Error("want error for nil rng")
	}
	bad := JitterModel{SigmaOS: -1}
	if _, err := New(Config{Policy: c, Jitter: bad, Payload: src, RNG: xrand.New(2)}); err == nil {
		t.Error("want error for invalid jitter")
	}
}

// TestJitterRejectsNonFinite: a NaN or infinite jitter parameter is
// refused with an error naming it.
func TestJitterRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		field string
		j     JitterModel
	}{
		{"SigmaOS", JitterModel{SigmaOS: nan}},
		{"SigmaOS", JitterModel{SigmaOS: inf}},
		{"BlockMean", JitterModel{SigmaOS: 3e-6, BlockMean: nan}},
		{"BlockMean", JitterModel{BlockMean: inf}},
		{"BlockCap", JitterModel{BlockMean: 4e-6, BlockCap: nan}},
		{"BlockCap", JitterModel{BlockMean: 4e-6, BlockCap: inf}},
		{"BlockCap", JitterModel{BlockCap: math.Inf(-1)}},
	}
	for _, c := range cases {
		err := c.j.Validate()
		if err == nil {
			t.Errorf("%+v: accepted", c.j)
		} else if !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: error %q does not name %s", c.j, err, c.field)
		}
	}
}

// With zero jitter the CIT gateway is a perfect metronome: PIATs are
// exactly τ — Shannon's predefined pattern, zero leak.
func TestCITZeroJitterIsPerfect(t *testing.T) {
	g := newGW(t, mustCIT(t), JitterModel{}, 40, 1)
	piats := g.PIATs(1000)
	for i, x := range piats {
		// Differences of accumulated absolute times carry ~1 ulp of the
		// clock value; anything beyond that would be a real model leak.
		if math.Abs(x-tau) > 1e-12 {
			t.Fatalf("PIAT[%d] = %v, want %v", i, x, tau)
		}
	}
}

// Departure times must be strictly increasing under any jitter.
func TestDeparturesStrictlyIncrease(t *testing.T) {
	f := func(seed uint64) bool {
		g := newGW(t, mustCIT(t), DefaultJitter(), 40, seed)
		prev := math.Inf(-1)
		for i := 0; i < 500; i++ {
			d := g.Next()
			if d <= prev {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Paper §4.1.2 / Fig. 4(a): PIAT means are equal across payload rates —
// blocking delays shift every fire equally in expectation and cancel in
// the differences.
func TestEqualMeansAcrossRates(t *testing.T) {
	const n = 200000
	gl := newGW(t, mustCIT(t), DefaultJitter(), 10, 2)
	gh := newGW(t, mustCIT(t), DefaultJitter(), 40, 3)
	ml := stats.Mean(gl.PIATs(n))
	mh := stats.Mean(gh.PIATs(n))
	if math.Abs(ml-tau) > 50e-9 {
		t.Errorf("low-rate mean = %v", ml)
	}
	if math.Abs(mh-tau) > 50e-9 {
		t.Errorf("high-rate mean = %v", mh)
	}
	if math.Abs(ml-mh) > 100e-9 {
		t.Errorf("means differ: %v vs %v", ml, mh)
	}
}

// The leak: Var(PIAT | 40pps) > Var(PIAT | 10pps), ratio near the
// analytic prediction.
func TestVarianceRatioMatchesModel(t *testing.T) {
	const n = 400000
	j := DefaultJitter()
	c := mustCIT(t)
	gl := newGW(t, c, j, 10, 4)
	gh := newGW(t, c, j, 40, 5)
	vl := stats.Variance(gl.PIATs(n))
	vh := stats.Variance(gh.PIATs(n))
	rEmp := vh / vl
	rModel := VarianceRatio(c, j, 10, 40)
	if rEmp <= 1.3 {
		t.Fatalf("empirical r = %v, leak did not materialize", rEmp)
	}
	if math.Abs(rEmp-rModel)/rModel > 0.08 {
		t.Errorf("empirical r = %v vs model %v", rEmp, rModel)
	}
	// Per-class variance levels should match the model too.
	if got, want := vl, PIATVar(c, j, 10); math.Abs(got-want)/want > 0.05 {
		t.Errorf("low-rate PIAT var = %v, model %v", got, want)
	}
	if got, want := vh, PIATVar(c, j, 40); math.Abs(got-want)/want > 0.05 {
		t.Errorf("high-rate PIAT var = %v, model %v", got, want)
	}
}

// Default calibration targets r ≈ 1.9 (DESIGN.md §6).
func TestDefaultCalibration(t *testing.T) {
	c := mustCIT(t)
	r := VarianceRatio(c, DefaultJitter(), 10, 40)
	if r < 1.7 || r > 2.1 {
		t.Errorf("calibrated r = %v, want ~1.9", r)
	}
}

// VIT adds σ_T² to the PIAT variance and drives r toward 1.
func TestVITVarianceAndRatio(t *testing.T) {
	const sigmaT = 50e-6
	master := xrand.New(7)
	mkVIT := func() *VIT {
		v, err := NewVIT(tau, sigmaT, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	j := DefaultJitter()
	const n = 300000
	gl := newGW(t, mkVIT(), j, 10, 8)
	gh := newGW(t, mkVIT(), j, 40, 9)
	vl := stats.Variance(gl.PIATs(n))
	vh := stats.Variance(gh.PIATs(n))

	vit := mkVIT()
	wantL := PIATVar(vit, j, 10)
	if math.Abs(vl-wantL)/wantL > 0.05 {
		t.Errorf("VIT low-rate var = %v, model %v", vl, wantL)
	}
	rVIT := vh / vl
	rCIT := VarianceRatio(mustCIT(t), j, 10, 40)
	if rVIT >= rCIT {
		t.Errorf("VIT ratio %v should be below CIT ratio %v", rVIT, rCIT)
	}
	if rVIT > 1.05 {
		t.Errorf("VIT with σ_T = 50µs should push r near 1, got %v", rVIT)
	}
}

// Packet accounting: arrivals = sent payload + still queued; every fire
// is either payload or dummy.
func TestConservation(t *testing.T) {
	g := newGW(t, mustCIT(t), DefaultJitter(), 40, 10)
	for i := 0; i < 50000; i++ {
		g.Next()
	}
	s := g.Stats()
	if s.Fires != 50000 {
		t.Errorf("fires = %d", s.Fires)
	}
	if s.PayloadSent+s.Dummies != s.Fires {
		t.Errorf("payload %d + dummies %d != fires %d", s.PayloadSent, s.Dummies, s.Fires)
	}
	if s.PayloadSent+uint64(g.QueueLen()) != s.Arrivals {
		t.Errorf("conservation broken: sent %d queued %d arrivals %d",
			s.PayloadSent, g.QueueLen(), s.Arrivals)
	}
}

// Overhead: with payload rate λ << 1/τ the dummy fraction ≈ 1 − λτ.
func TestOverheadRatio(t *testing.T) {
	for _, tc := range []struct{ rate, want float64 }{
		{10, 0.9}, {40, 0.6},
	} {
		g := newGW(t, mustCIT(t), DefaultJitter(), tc.rate, 11)
		for i := 0; i < 200000; i++ {
			g.Next()
		}
		st := g.Stats()
		if got := float64(st.Dummies) / float64(st.Fires); math.Abs(got-tc.want) > 0.01 {
			t.Errorf("rate %v: overhead = %v, want ~%v", tc.rate, got, tc.want)
		}
	}
}

// A payload rate above the padding rate saturates the gateway: the queue
// grows without bound and the timer carries payload on nearly every fire
// — the paper's QoS coupling.
func TestOverloadSaturatesGateway(t *testing.T) {
	master := xrand.New(12)
	src, err := traffic.NewPoisson(200, master.Split()) // 2x the padding rate
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{
		Policy: mustCIT(t), Jitter: DefaultJitter(),
		Payload: src, RNG: master.Split(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		g.Next()
	}
	s := g.Stats()
	// 20000 fires at 10 ms span 200 s: ~40000 arrivals for 20000 slots.
	if s.MaxQueue < 10000 {
		t.Errorf("overloaded queue peaked at %d, want it to grow past 10000", s.MaxQueue)
	}
	if s.Dummies > s.Fires/100 {
		t.Errorf("saturated gateway should send almost no dummies, sent %d/%d", s.Dummies, s.Fires)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	a := newGW(t, mustCIT(t), DefaultJitter(), 40, 99)
	b := newGW(t, mustCIT(t), DefaultJitter(), 40, 99)
	for i := 0; i < 1000; i++ {
		ta, da := a.NextPacket()
		tb, db := b.NextPacket()
		if ta != tb || da != db {
			t.Fatalf("runs diverged at packet %d", i)
		}
	}
}

// The capped-exponential moment formulas behind DeltaVar, checked by
// Monte Carlo.
func TestBlockMomentFormulas(t *testing.T) {
	j := DefaultJitter()
	r := xrand.New(13)
	const n = 2000000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		b := r.Exp(j.BlockMean)
		if b > j.BlockCap {
			b = j.BlockCap
		}
		sum += b
		sumsq += b * b
	}
	m1, m2 := sum/n, sumsq/n
	if want := j.blockMeanCapped(); math.Abs(m1-want)/want > 0.005 {
		t.Errorf("E[d] = %v, formula %v", m1, want)
	}
	if want := j.blockSecondMoment(); math.Abs(m2-want)/want > 0.01 {
		t.Errorf("E[d²] = %v, formula %v", m2, want)
	}
}

func TestBlockMomentEdgeCases(t *testing.T) {
	zero := JitterModel{}
	if zero.blockSecondMoment() != 0 || zero.blockMeanCapped() != 0 {
		t.Error("zero model moments should be 0")
	}
	uncapped := JitterModel{BlockMean: 2e-6}
	if got, want := uncapped.blockSecondMoment(), 2*2e-6*2e-6; math.Abs(got-want) > 1e-18 {
		t.Errorf("uncapped E[d²] = %v, want %v", got, want)
	}
	if got := uncapped.blockMeanCapped(); got != 2e-6 {
		t.Errorf("uncapped E[d] = %v", got)
	}
}

// PIAT distribution at the gateway should look near-normal — the paper's
// own wording for its Fig. 4(a) is "almost bell-shaped", and the compound
// blocking term necessarily fattens the tails a little. We check the bulk
// with a KS distance against the fitted normal and bound the kurtosis
// loosely.
func TestPIATApproximatelyNormal(t *testing.T) {
	master := xrand.New(14)
	g := newGW(t, mustCIT(t), DefaultJitter(), 10, 14)
	xs := g.PIATs(100000)
	mean := stats.Mean(xs)
	sd := stats.StdDev(xs)
	var k4 float64
	for _, x := range xs {
		z := (x - mean) / sd
		k4 += z * z * z * z
	}
	k4 /= float64(len(xs))
	if k4 < 2.5 || k4 > 8 {
		t.Errorf("kurtosis = %v, too far from normal", k4)
	}
	ref := make([]float64, len(xs))
	for i := range ref {
		ref[i] = master.Normal(mean, sd)
	}
	d, err := stats.KSDistance(xs, ref)
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.06 {
		t.Errorf("KS distance to fitted normal = %v", d)
	}
}

// Successive PIATs share a δ term (X_k = T + δ_{k+1} − δ_k) and must show
// the MA(1) signature: lag-1 autocorrelation ≈ −1/2, lag-2 ≈ 0.
func TestPIATAutocorrelationStructure(t *testing.T) {
	g := newGW(t, mustCIT(t), DefaultJitter(), 40, 15)
	xs := g.PIATs(200000)
	if ac1 := stats.Autocorr(xs, 1); math.Abs(ac1+0.5) > 0.02 {
		t.Errorf("lag-1 autocorr = %v, want ~ -0.5", ac1)
	}
	if ac2 := stats.Autocorr(xs, 2); math.Abs(ac2) > 0.02 {
		t.Errorf("lag-2 autocorr = %v, want ~ 0", ac2)
	}
}

func TestVITIntervalFloor(t *testing.T) {
	v, err := NewVIT(tau, 5e-3, xrand.New(16)) // huge σ_T: floor engages
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		if iv := v.NextInterval(); iv < tau/100 {
			t.Fatalf("interval %v below floor", iv)
		}
	}
}

func BenchmarkGatewayNext(b *testing.B) {
	master := xrand.New(1)
	src, err := traffic.NewPoisson(40, master.Split())
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewCIT(tau)
	if err != nil {
		b.Fatal(err)
	}
	g, err := New(Config{Policy: c, Jitter: DefaultJitter(), Payload: src, RNG: master.Split()})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// Now exposes the stream clock that carries across session windows: the
// gateway's continuous timeline advances monotonically with every fire
// instead of restarting per observation window.
func TestGatewaySessionClock(t *testing.T) {
	master := xrand.New(11)
	src, err := traffic.NewPoisson(40, master.Split())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCIT(tau)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{Policy: c, Jitter: DefaultJitter(), Payload: src, RNG: master.Split()})
	if err != nil {
		t.Fatal(err)
	}
	if g.lastDepart != 0 {
		t.Fatalf("fresh gateway clock = %v", g.lastDepart)
	}
	for i := 0; i < 500; i++ {
		g.NextPacket()
	}
	st := g.Stats()
	if st.Fires != 500 {
		t.Fatalf("after 500 fires: fires = %d", st.Fires)
	}
	if got, want := g.lastDepart, 500*tau; got < 0.9*want || got > 1.1*want {
		t.Errorf("clock after 500 fires = %v, want ~%v", got, want)
	}
	// Observation continues the same timeline: the next departure
	// advances past the current clock, never restarts at zero.
	warm := g.lastDepart
	next := g.Next()
	if next <= warm {
		t.Errorf("post-warm-up departure %v restarted the clock (warmed to %v)", next, warm)
	}
	if next-g.lastDepart != 0 {
		t.Errorf("clock (%v) should track the last departure (%v)", g.lastDepart, next)
	}
}

// The ingress tap must observe every payload arrival (dropped ones
// included) at its true arrival time, without disturbing the stream.
func TestGatewayArrivalTap(t *testing.T) {
	build := func(tap func(float64)) *Gateway {
		cit, err := NewCIT(10e-3)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := traffic.NewPoisson(40, xrand.New(11))
		if err != nil {
			t.Fatal(err)
		}
		gw, err := New(Config{
			Policy:     cit,
			Jitter:     DefaultJitter(),
			Payload:    payload,
			RNG:        xrand.New(12),
			ArrivalTap: tap,
		})
		if err != nil {
			t.Fatal(err)
		}
		return gw
	}
	var taps []float64
	tapped := build(func(ts float64) { taps = append(taps, ts) })
	plain := build(nil)
	for i := 0; i < 2000; i++ {
		if tapped.Next() != plain.Next() {
			t.Fatal("the tap must not disturb the departure stream")
		}
	}
	stats := tapped.Stats()
	if uint64(len(taps)) != stats.Arrivals {
		t.Fatalf("tap saw %d arrivals, gateway counted %d", len(taps), stats.Arrivals)
	}
	for i := 1; i < len(taps); i++ {
		if taps[i] < taps[i-1] {
			t.Fatalf("tap times not monotone at %d", i)
		}
	}
}
