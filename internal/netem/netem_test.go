package netem

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"linkpad/internal/stats"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// service time of a 1500-byte packet on 100 Mbit/s
const svc = 120e-6

// MD1WaitMean returns the mean stationary M/D/1 waiting time at
// utilization rho and deterministic service time s: ρs / (2(1−ρ)), the
// reference the routers' simulated waits are checked against.
func MD1WaitMean(rho, s float64) float64 {
	return rho * s / (2 * (1 - rho))
}

// uniformHops builds n identical hops.
func uniformHops(n int, service float64, util Util, prop float64) []Hop {
	hops := make([]Hop, n)
	for i := range hops {
		hops[i] = Hop{Service: service, Util: util, Prop: prop}
	}
	return hops
}

// PIATs collects n inter-arrival times.
func (d *Differ) PIATs(n int) []float64 {
	out := make([]float64, n)
	d.NextBatch(out)
	return out
}

func periodicTimes(n int, period float64) []float64 {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = float64(i+1) * period
	}
	return ts
}

func TestServiceTime(t *testing.T) {
	if got := ServiceTime(100e6, 1500); math.Abs(got-svc) > 1e-12 {
		t.Errorf("ServiceTime = %v, want %v", got, svc)
	}
	if got := ServiceTime(10e6, 1500); math.Abs(got-1.2e-3) > 1e-12 {
		t.Errorf("ServiceTime = %v, want 1.2ms", got)
	}
}

func TestMD1FormulasKnown(t *testing.T) {
	// rho=0.4, s=1: mean = 1/3, var = 1/3 (worked example in package docs).
	if got := MD1WaitMean(0.4, 1); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("mean = %v", got)
	}
	if got := MD1WaitVar(0.4, 1); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("var = %v", got)
	}
	if MD1WaitMean(0, 1) != 0 || MD1WaitVar(0, 1) != 0 {
		t.Error("zero utilization should have zero waiting")
	}
}

// The P-K ladder sampler inside FastRouter must reproduce the M/D/1
// moments: probe with widely spaced packets so FIFO clamping never binds.
func TestFastRouterMatchesMD1Moments(t *testing.T) {
	for _, rho := range []float64{0.1, 0.3, 0.5} {
		const n = 300000
		in := periodicTimes(n, 10e-3)
		fr, err := NewFastRouter(NewSliceStream(in), svc, constUtil(rho), 0, xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		var m stats.Moments
		zeros := 0
		for i := 0; i < n; i++ {
			w := fr.Next() - in[i] - svc
			if w < -1e-9 {
				t.Fatalf("negative waiting %v", w)
			}
			if w < 1e-12 {
				zeros++
			}
			m.Add(w)
		}
		if want := MD1WaitMean(rho, svc); math.Abs(m.Mean()-want)/want > 0.03 {
			t.Errorf("rho=%v: mean wait = %v, want %v", rho, m.Mean(), want)
		}
		if want := MD1WaitVar(rho, svc); math.Abs(m.Variance()-want)/want > 0.05 {
			t.Errorf("rho=%v: wait var = %v, want %v", rho, m.Variance(), want)
		}
		// P(W = 0) = 1 - rho: the sharp peak that keeps entropy detection
		// alive under cross traffic.
		if got, want := float64(zeros)/n, 1-rho; math.Abs(got-want) > 0.01 {
			t.Errorf("rho=%v: P(W=0) = %v, want %v", rho, got, want)
		}
	}
}

// The exact Lindley router fed by Poisson cross traffic must agree with
// the closed-form M/D/1 waiting moments (PASTA applies to the padded
// probes only approximately, but 10 ms spacing samples the stationary
// workload essentially independently).
func TestExactRouterMatchesMD1(t *testing.T) {
	const rho = 0.4
	const n = 200000
	in := periodicTimes(n, 10e-3)
	cross, err := traffic.NewPoisson(rho/svc, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(NewSliceStream(in), cross, svc, 0)
	if err != nil {
		t.Fatal(err)
	}
	var m stats.Moments
	for i := 0; i < n; i++ {
		w := r.Next() - in[i] - svc
		if w < -1e-9 {
			t.Fatalf("negative waiting %v", w)
		}
		m.Add(w)
	}
	if want := MD1WaitMean(rho, svc); math.Abs(m.Mean()-want)/want > 0.05 {
		t.Errorf("mean wait = %v, want %v", m.Mean(), want)
	}
	if want := MD1WaitVar(rho, svc); math.Abs(m.Variance()-want)/want > 0.10 {
		t.Errorf("wait var = %v, want %v", m.Variance(), want)
	}
}

// Fast and exact routers must produce statistically equivalent padded
// delay distributions — the license to use FastRouter in the big sweeps.
func TestFastVsExactRouterDistributions(t *testing.T) {
	const rho = 0.3
	const n = 100000
	in := periodicTimes(n, 10e-3)

	fr, err := NewFastRouter(NewSliceStream(in), svc, constUtil(rho), 0, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	cross, err := traffic.NewPoisson(rho/svc, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewRouter(NewSliceStream(in), cross, svc, 0)
	if err != nil {
		t.Fatal(err)
	}
	wf := make([]float64, n)
	we := make([]float64, n)
	for i := 0; i < n; i++ {
		wf[i] = fr.Next() - in[i]
		we[i] = ex.Next() - in[i]
	}
	d, err := stats.KSDistance(wf, we)
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.02 {
		t.Errorf("KS distance between fast and exact delays = %v", d)
	}
}

// Independent cross-validation: an event-ordered FIFO queue — cross and
// tagged arrivals merged in time order, cross first on ties — must agree
// with the Lindley router almost exactly on identical arrival sequences.
func TestRouterAgreesWithEventDrivenSim(t *testing.T) {
	const rho = 0.35
	const n = 5000
	in := periodicTimes(n, 10e-3)
	horizon := in[n-1] + 1

	// Pre-generate one shared cross arrival sequence.
	crossRng := xrand.New(5)
	var crossTimes []float64
	for t0 := crossRng.Exp(svc / rho); t0 < horizon; t0 += crossRng.Exp(svc / rho) {
		crossTimes = append(crossTimes, t0)
	}

	// Serve the merged arrivals one event at a time: each starts when it
	// arrives or when the server frees, whichever is later.
	var freeAt float64
	serve := func(at float64) float64 {
		freeAt = max(at, freeAt) + svc
		return freeAt
	}
	tagged := make([]float64, 0, n)
	ci := 0
	for _, it := range in {
		for ; ci < len(crossTimes) && crossTimes[ci] <= it; ci++ {
			serve(crossTimes[ci])
		}
		tagged = append(tagged, serve(it))
	}

	// Lindley router over a replayed copy of the same cross sequence.
	replay := &sliceSource{times: crossTimes}
	r, err := NewRouter(NewSliceStream(in), replay, svc, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got := r.Next()
		if math.Abs(got-tagged[i]) > 1e-9 {
			t.Fatalf("packet %d: lindley %v vs event-driven %v", i, got, tagged[i])
		}
	}
}

// sliceSource replays absolute times as a traffic.Source (gap sequence).
type sliceSource struct {
	times []float64
	i     int
	last  float64
}

func (s *sliceSource) Next() float64 {
	if s.i >= len(s.times) {
		return math.Inf(1)
	}
	gap := s.times[s.i] - s.last
	s.last = s.times[s.i]
	s.i++
	return gap
}

func (s *sliceSource) Rate() float64 { return 0 }

func TestRouterNoCrossIsPureDelay(t *testing.T) {
	in := periodicTimes(100, 10e-3)
	r, err := NewRouter(NewSliceStream(in), nil, svc, 5e-3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		got := r.Next()
		want := in[i] + svc + 5e-3
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("packet %d: %v want %v", i, got, want)
		}
	}
}

func TestFastRouterFIFONeverReorders(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		// Bursty upstream: some gaps shorter than the service time.
		times := make([]float64, 300)
		tt := 0.0
		for i := range times {
			tt += r.Exp(svc / 2)
			times[i] = tt
		}
		fr, err := NewFastRouter(NewSliceStream(times), svc, constUtil(0.5), 0, r.Split())
		if err != nil {
			return false
		}
		prev := math.Inf(-1)
		for i := 0; i < 300; i++ {
			out := fr.Next()
			if out < prev+svc-1e-15 {
				return false
			}
			prev = out
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestLadderShortcutExact checks the K = 1 band FastRouter resolves
// without logarithms: for every ρ in (0, 0.95] and every x with
// ρ²(1+kOneSlack) < x <= ρ(1−kOneSlack), the exact ladder count
// floor(log x / log ρ) is 1. ρ is sampled log-uniformly over
// (1e-300, 0.95] plus the end points; x at both band edges and inside.
func TestLadderShortcutExact(t *testing.T) {
	r := xrand.New(15)
	rhos := []float64{maxRho, math.Nextafter(1e-300, 1)}
	for range 200000 {
		rhos = append(rhos, maxRho*math.Exp(r.Float64Open()*math.Log(1e-300/maxRho)))
	}
	for _, rho := range rhos {
		xlo, xhi := math.Nextafter(rho*rho*(1+kOneSlack), 1), rho*(1-kOneSlack)
		xs := []float64{xlo, xhi, min(xlo+(xhi-xlo)*r.Float64(), xhi)}
		if xlo > 0 {
			// Log-uniform inside the band reaches its lower decades.
			xs = append(xs, min(xlo*math.Exp(r.Float64()*math.Log(xhi/xlo)), xhi))
		}
		for _, x := range xs {
			if !(xlo <= x && x <= xhi) {
				t.Fatalf("ρ=%v: x=%v outside the band [%v, %v]", rho, x, xlo, xhi)
			}
			if k := math.Floor(math.Log(x) / math.Log(rho)); k != 1 {
				t.Fatalf("ρ=%v x=%v: floor(log x / log ρ) = %v, want 1", rho, x, k)
			}
		}
	}
}

// TestDiurnalBoundsHold checks that a slab bound covers the clamped
// utilization the exact path computes at every time in the slab, over
// profiles, start hours and slab spans from seconds to days.
func TestDiurnalBoundsHold(t *testing.T) {
	r := xrand.New(8)
	ts := make([]float64, 64)
	for range 20000 {
		d := traffic.Diurnal{Trough: r.Float64(), Peak: 1.2 * r.Float64(), TroughHour: 24 * r.Float64()}
		u := DiurnalUtil(d, 48*r.Float64()-12).(diurnalUtil)
		t0, span := 1e5*r.Float64(), math.Pow(10, 6*r.Float64()-1)
		for i := range ts {
			ts[i] = t0 + span*r.Float64()
		}
		lo, hi := u.bounds(ts)
		if lo == 0 && hi == 0 {
			t.Fatalf("%+v over [%v, %v]: no bound", u, t0, t0+span)
		}
		for _, tt := range ts {
			if rho := min(u.At(tt), maxRho); !(lo <= rho && rho <= hi) {
				t.Fatalf("%+v at t=%v: ρ=%v outside [%v, %v]", u, tt, rho, lo, hi)
			}
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	up := NewSliceStream(periodicTimes(1, 1))
	if _, err := NewFastRouter(nil, svc, constUtil(0), 0, xrand.New(1)); err == nil {
		t.Error("nil upstream")
	}
	if _, err := NewFastRouter(up, 0, constUtil(0), 0, xrand.New(1)); err == nil {
		t.Error("zero service")
	}
	if _, err := NewFastRouter(up, svc, nil, 0, xrand.New(1)); err == nil {
		t.Error("nil util")
	}
	if _, err := NewFastRouter(up, svc, constUtil(0), -1, xrand.New(1)); err == nil {
		t.Error("negative prop")
	}
	if _, err := NewFastRouter(up, svc, constUtil(0), 0, nil); err == nil {
		t.Error("nil rng")
	}
	if _, err := NewRouter(nil, nil, svc, 0); err == nil {
		t.Error("router nil upstream")
	}
	if _, err := NewRouter(up, nil, -1, 0); err == nil {
		t.Error("router bad service")
	}
	if _, err := NewQuantizer(up, 0); err == nil {
		t.Error("zero resolution")
	}
	if _, err := NewPath(nil, nil, nil); err == nil {
		t.Error("path nil upstream")
	}
	if _, err := NewPath(up, uniformHops(1, svc, constUtil(0.1), 0), nil); err == nil {
		t.Error("path nil rng")
	}
}

func TestPathZeroHopsPassThrough(t *testing.T) {
	up := NewSliceStream(periodicTimes(5, 1))
	p, err := NewPath(up, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Next() != 1 {
		t.Error("zero-hop path should be the upstream itself")
	}
}

// More hops accumulate more queueing noise: PIAT variance grows with path
// length — the paper's campus vs WAN contrast.
func TestPathNoiseGrowsWithHops(t *testing.T) {
	const n = 60000
	variance := func(hops int) float64 {
		up := NewSliceStream(periodicTimes(n+1, 10e-3))
		p, err := NewPath(up, uniformHops(hops, svc, constUtil(0.2), 1e-3), xrand.New(42))
		if err != nil {
			t.Fatal(err)
		}
		return stats.Variance(NewDiffer(p, nil).PIATs(n))
	}
	v1, v5, v15 := variance(1), variance(5), variance(15)
	if !(v1 < v5 && v5 < v15) {
		t.Errorf("PIAT variance not increasing with hops: %v %v %v", v1, v5, v15)
	}
}

func TestDiurnalUtil(t *testing.T) {
	d := traffic.Diurnal{Trough: 0.05, Peak: 0.35, TroughHour: 3}
	u := DiurnalUtil(d, 0) // run starts at midnight
	if got := u.At(3 * 3600); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("u.At(3h) = %v", got)
	}
	if got := u.At(15 * 3600); math.Abs(got-0.35) > 1e-12 {
		t.Errorf("u.At(15h) = %v", got)
	}
	u2 := DiurnalUtil(d, 3) // run starts at 3 AM
	if got := u2.At(0); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("start-hour offset broken: %v", got)
	}
}

func TestDifferAndPIATs(t *testing.T) {
	d := NewDiffer(NewSliceStream([]float64{1, 1.5, 2.5, 4}), nil)
	got := d.PIATs(3)
	want := []float64{0.5, 1, 1.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-15 {
			t.Fatalf("PIATs = %v, want %v", got, want)
		}
	}
}

// TestLossyTapRate: the adversary's lossy tap is an Impairer with i.i.d.
// loss alone; it keeps 1-p of a periodic stream and never reorders it.
func TestLossyTapRate(t *testing.T) {
	const n = 100000
	in := periodicTimes(n, 10e-3)
	lt, err := NewImpairer(NewSliceStream(in), &Impairment{LossProb: 0.2}, xrand.New(6), nil)
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	prev := -1.0
	for {
		tt := lt.Next()
		if tt >= in[n-1000] { // stop before the slice runs out
			break
		}
		if tt <= prev {
			t.Fatal("lossy tap reordered output")
		}
		prev = tt
		kept++
	}
	rate := float64(kept) / float64(n-1000)
	if math.Abs(rate-0.8) > 0.01 {
		t.Errorf("survivor rate = %v, want ~0.8", rate)
	}
}

func TestQuantizer(t *testing.T) {
	q, err := NewQuantizer(NewSliceStream([]float64{0.0000014, 0.0000026, 0.0000026}), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1e-6, 2e-6, 2e-6}
	for i := range want {
		if got := q.Next(); math.Abs(got-want[i]) > 1e-18 {
			t.Fatalf("quantized[%d] = %v, want %v", i, got, want[i])
		}
	}
}

func TestSliceStreamOrder(t *testing.T) {
	xs := []float64{3, 1, 2}
	sort.Float64s(xs)
	s := NewSliceStream(xs)
	if s.Next() != 1 || s.Next() != 2 || s.Next() != 3 {
		t.Error("slice stream order broken")
	}
}

// countingStream emits 0, 1, 2, ... seconds and counts its pulls.
type countingStream struct {
	next  float64
	pulls int
}

func (s *countingStream) Next() float64 {
	t := s.next
	s.next++
	s.pulls++
	return t
}

// Collect keeps the times in (from, to], appends them to dst's storage,
// and pulls exactly one departure past to.
func TestCollect(t *testing.T) {
	s := &countingStream{}
	buf := make([]float64, 1, 8)
	got := Collect(buf[:0], s, 2, 5)
	if want := []float64{3, 4, 5}; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("Collect over (2, 5] = %v, want %v", got, want)
	}
	if &got[0] != &buf[0] {
		t.Error("Collect did not reuse dst's storage")
	}
	if s.pulls != 7 {
		t.Errorf("Collect pulled %d times (0 through 6), want 7", s.pulls)
	}
	// A stream already past to yields nothing, for one pull.
	got = Collect(got[:0], s, 0, 5)
	if len(got) != 0 || s.pulls != 8 {
		t.Errorf("Collect past the window = %v after %d pulls, want none after 8", got, s.pulls)
	}
}

func BenchmarkFastRouterNext(b *testing.B) {
	in := make([]float64, b.N+1)
	for i := range in {
		in[i] = float64(i) * 10e-3
	}
	fr, err := NewFastRouter(NewSliceStream(in), svc, constUtil(0.4), 0, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr.Next()
	}
}

func BenchmarkExactRouterNext(b *testing.B) {
	in := make([]float64, b.N+1)
	for i := range in {
		in[i] = float64(i) * 10e-3
	}
	cross, err := traffic.NewPoisson(0.4/svc, xrand.New(2))
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRouter(NewSliceStream(in), cross, svc, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Next()
	}
}

// The Differ's session clock: Now tracks the absolute time of the last
// observed packet across windows, Skip discards warm-up PIATs while still
// advancing the clock, and Observed counts everything consumed.
func TestDifferSessionClock(t *testing.T) {
	times := []float64{1.0, 1.5, 2.5, 4.0, 6.0, 9.0}
	d := NewDiffer(NewSliceStream(times), nil)
	if d.Now() != 0 || d.Observed() != 0 {
		t.Fatalf("fresh differ: now=%v observed=%d", d.Now(), d.Observed())
	}
	d.Skip(2) // consumes gaps 0.5 and 1.0, clock at 2.5
	if d.Now() != 2.5 {
		t.Errorf("after Skip(2): now=%v, want 2.5", d.Now())
	}
	if d.Observed() != 2 {
		t.Errorf("after Skip(2): observed=%d, want 2", d.Observed())
	}
	if x := d.Next(); x != 1.5 {
		t.Errorf("next PIAT after skip = %v, want 1.5", x)
	}
	if d.Now() != 4.0 || d.Observed() != 3 {
		t.Errorf("clock after next: now=%v observed=%d", d.Now(), d.Observed())
	}
	// Consuming window-by-window continues the same timeline.
	if x := d.Next(); x != 2.0 {
		t.Errorf("continuation PIAT = %v, want 2.0", x)
	}
}
