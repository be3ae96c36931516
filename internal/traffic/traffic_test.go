package traffic

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"linkpad/internal/stats"
	"linkpad/internal/xrand"
)

// measureRate draws n gaps and returns packets per second.
func measureRate(s Source, n int) float64 {
	var total float64
	for i := 0; i < n; i++ {
		total += s.Next()
	}
	return float64(n) / total
}

func TestPoissonRate(t *testing.T) {
	for _, rate := range []float64{10, 40, 1000} {
		s, err := NewPoisson(rate, xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if got := measureRate(s, 200000); math.Abs(got-rate)/rate > 0.02 {
			t.Errorf("rate %v: measured %v", rate, got)
		}
		if s.Rate() != rate {
			t.Errorf("Rate() = %v", s.Rate())
		}
	}
}

func TestPoissonGapCV(t *testing.T) {
	// Exponential gaps: coefficient of variation = 1.
	s, err := NewPoisson(40, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	gaps := make([]float64, 100000)
	for i := range gaps {
		gaps[i] = s.Next()
	}
	sum := stats.Summarize(gaps)
	cv := sum.StdDev / sum.Mean
	if math.Abs(cv-1) > 0.02 {
		t.Errorf("Poisson gap CV = %v, want 1", cv)
	}
}

func TestPoissonValidation(t *testing.T) {
	if _, err := NewPoisson(0, xrand.New(1)); err == nil {
		t.Error("want error for zero rate")
	}
	if _, err := NewPoisson(10, nil); err == nil {
		t.Error("want error for nil rng")
	}
}

func TestCBRDeterministic(t *testing.T) {
	s := mustStart(t, 0)(CBRModel(40, 0))
	for i := 0; i < 100; i++ {
		if g := s.Next(); g != 0.025 {
			t.Fatalf("gap = %v, want 0.025", g)
		}
	}
}

func TestCBRJitterBounds(t *testing.T) {
	s := mustStart(t, 3)(CBRModel(40, 1e-3))
	for i := 0; i < 10000; i++ {
		g := s.Next()
		if g < 0.025-5e-4 || g > 0.025+5e-4 {
			t.Fatalf("jittered gap out of range: %v", g)
		}
	}
	if got := measureRate(s, 100000); math.Abs(got-40)/40 > 0.01 {
		t.Errorf("jittered CBR rate = %v", got)
	}
}

func TestCBRValidation(t *testing.T) {
	if _, err := CBRModel(0, 0); err == nil {
		t.Error("want error for zero rate")
	}
	if _, err := CBRModel(40, -1); err == nil {
		t.Error("want error for negative jitter")
	}
	if _, err := CBRModel(40, 0.05); err == nil {
		t.Error("want error for jitter >= interval")
	}
}

func TestOnOffLongRunRate(t *testing.T) {
	// Peak 100 pps, on 50% of the time => 50 pps average.
	s := onOff(t, 100, 0.5, 0.5, 4)
	if want := 50.0; math.Abs(s.Rate()-want) > 1e-12 {
		t.Errorf("Rate() = %v", s.Rate())
	}
	if got := measureRate(s, 200000); math.Abs(got-50)/50 > 0.05 {
		t.Errorf("measured rate = %v, want ~50", got)
	}
}

func TestOnOffBurstiness(t *testing.T) {
	// On-off gaps must be over-dispersed relative to Poisson at the same
	// average rate (CV > 1).
	s := onOff(t, 200, 0.1, 0.4, 5)
	gaps := make([]float64, 100000)
	for i := range gaps {
		gaps[i] = s.Next()
	}
	sum := stats.Summarize(gaps)
	if cv := sum.StdDev / sum.Mean; cv < 1.2 {
		t.Errorf("on-off CV = %v, want > 1.2", cv)
	}
}

func TestOnOffValidation(t *testing.T) {
	if _, err := OnOffModel(0, 1, 1); err == nil {
		t.Error("want error for zero peak")
	}
	if _, err := OnOffModel(10, 0, 1); err == nil {
		t.Error("want error for zero on-time")
	}
	if _, err := OnOffModel(10, 1, 0); err == nil {
		t.Error("want error for zero off-time")
	}
}

// onOff builds an on-off Model on stream seed.
func onOff(t testing.TB, peak, meanOn, meanOff float64, seed uint64) *Model {
	t.Helper()
	m, err := OnOffModel(peak, meanOn, meanOff)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(xrand.NewStream(seed))
	return &m
}

// mustStart returns a function that fails t on a constructor's error
// and otherwise returns the Model started on stream seed.
func mustStart(t testing.TB, seed uint64) func(Model, error) *Model {
	return func(m Model, err error) *Model {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		m.Start(xrand.NewStream(seed))
		return &m
	}
}

// TestModelDrawsFromItsStream: each kind draws, gap for gap and bit for
// bit, the variates its law names from the stream it was started on —
// an exponential for Poisson, a centred uniform for jittered CBR, and
// for a train a Bernoulli continuation and an exponential train start —
// and reports its rate; the zero Model never fires and has rate 0.
func TestModelDrawsFromItsStream(t *testing.T) {
	cases := []struct {
		name string
		m    *Model
		rate float64
		want func(s *xrand.Stream, i int) float64
	}{
		{"poisson", mustStart(t, 3)(PoissonModel(40)), 40,
			func(s *xrand.Stream, _ int) float64 { return s.Exp(1 / 40.0) }},
		{"cbr", mustStart(t, 4)(CBRModel(40, 1e-3)), 40,
			func(s *xrand.Stream, _ int) float64 { return 1/40.0 + 1e-3*(s.Float64()-0.5) }},
		{"train", mustStart(t, 5)(TrainModel(1000, 5, 1e-5)), 1000,
			func(s *xrand.Stream, i int) float64 {
				if i > 0 && s.Bernoulli(1-1/5.0) {
					return 1e-5
				}
				return s.Exp(1 / (1000 / 5.0))
			}},
	}
	for k, c := range cases {
		if math.Abs(c.m.Rate()-c.rate) > 1e-9*c.rate {
			t.Errorf("%s: rate %v, want %v", c.name, c.m.Rate(), c.rate)
		}
		twin := xrand.NewStream(uint64(3 + k))
		for i := 0; i < 10_000; i++ {
			if got, want := c.m.Next(), c.want(&twin, i); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s gap %d: Model %v, stream %v", c.name, i, got, want)
			}
		}
	}
	if _, err := PoissonModel(0); err == nil {
		t.Error("want error for a zero Poisson rate")
	}
	if _, err := CBRModel(40, 0.05); err == nil {
		t.Error("want error for jitter beyond the interval")
	}
	var none Model
	if !none.None() || none.Rate() != 0 || !math.IsInf(none.Next(), 1) {
		t.Errorf("zero Model: None %t, Rate %v, Next %v; want true, 0, +Inf", none.None(), none.Rate(), none.Next())
	}
}

// TestModelRejectsNonFinite: every constructor refuses a NaN or infinite
// parameter with an error naming it. An infinite rate would emit gaps of
// zero forever and never let a consumer's clock advance.
func TestModelRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name, field string
		build       func() (Model, error)
	}{
		{"poisson rate +Inf", "Poisson rate", func() (Model, error) { return PoissonModel(inf) }},
		{"poisson rate NaN", "Poisson rate", func() (Model, error) { return PoissonModel(nan) }},
		{"cbr rate +Inf", "CBR rate", func() (Model, error) { return CBRModel(inf, 0) }},
		{"cbr rate NaN", "CBR rate", func() (Model, error) { return CBRModel(nan, 0) }},
		{"cbr jitter NaN", "CBR jitter", func() (Model, error) { return CBRModel(40, nan) }},
		{"cbr jitter +Inf", "CBR jitter", func() (Model, error) { return CBRModel(40, inf) }},
		{"onoff peak +Inf", "OnOff peak rate", func() (Model, error) { return OnOffModel(inf, 1, 1) }},
		{"onoff on NaN", "OnOff mean ON time", func() (Model, error) { return OnOffModel(10, nan, 1) }},
		{"onoff off +Inf", "OnOff mean OFF time", func() (Model, error) { return OnOffModel(10, 1, inf) }},
		{"train rate +Inf", "Train rate", func() (Model, error) { return TrainModel(inf, 5, 1e-6) }},
		{"train rate NaN", "Train rate", func() (Model, error) { return TrainModel(nan, 5, 1e-6) }},
		{"train length NaN", "Train mean length", func() (Model, error) { return TrainModel(100, nan, 1e-6) }},
		{"train length +Inf", "Train mean length", func() (Model, error) { return TrainModel(100, inf, 0) }},
		// A finite length so long that a train never ends in float64.
		{"train length 1e300", "Train mean length", func() (Model, error) { return TrainModel(100, 1e300, 0) }},
		{"train gap NaN", "Train intra-train gap", func() (Model, error) { return TrainModel(100, 5, nan) }},
		{"train gap +Inf", "Train intra-train gap", func() (Model, error) { return TrainModel(100, 5, inf) }},
		{"NewPoisson +Inf", "Poisson rate", func() (Model, error) {
			m, err := NewPoisson(inf, xrand.New(1))
			if m == nil {
				return Model{}, err
			}
			return *m, err
		}},
	}
	for _, c := range cases {
		_, err := c.build()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: error %q does not name %s", c.name, err, c.field)
		}
	}
}

func TestTrainRateAndBurstiness(t *testing.T) {
	s := mustStart(t, 6)(TrainModel(1000, 5, 10e-6))
	if math.Abs(s.Rate()-1000) > 1e-9 {
		t.Errorf("Rate() = %v", s.Rate())
	}
	gaps := make([]float64, 200000)
	for i := range gaps {
		gaps[i] = s.Next()
	}
	sum := stats.Summarize(gaps)
	rate := 1 / sum.Mean
	if math.Abs(rate-1000)/1000 > 0.05 {
		t.Errorf("measured packet rate = %v", rate)
	}
	if cv := sum.StdDev / sum.Mean; cv < 1.5 {
		t.Errorf("train CV = %v, want > 1.5 (burstier than Poisson)", cv)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := TrainModel(0, 5, 1e-6); err == nil {
		t.Error("want error for zero rate")
	}
	if _, err := TrainModel(100, 0.5, 1e-6); err == nil {
		t.Error("want error for meanLen < 1")
	}
	if _, err := TrainModel(100, 5, -1e-6); err == nil {
		t.Error("want error for a negative intra-train gap")
	}
}

func TestAllGapsNonNegative(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		ps, err := NewPoisson(40, r.Split())
		if err != nil {
			return false
		}
		oo, err := OnOffModel(100, 0.2, 0.3)
		if err != nil {
			return false
		}
		oo.Start(r.Split().Stream)
		tr, err := TrainModel(500, 4, 5e-6)
		if err != nil {
			return false
		}
		tr.Start(r.Split().Stream)
		for i := 0; i < 200; i++ {
			if ps.Next() < 0 || oo.Next() < 0 || tr.Next() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDiurnalShape(t *testing.T) {
	d := Diurnal{Trough: 0.05, Peak: 0.35, TroughHour: 3}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := d.At(3); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("At(trough) = %v", got)
	}
	if got := d.At(15); math.Abs(got-0.35) > 1e-12 {
		t.Errorf("At(peak) = %v", got)
	}
	// Wrapping: hour 27 == hour 3.
	if math.Abs(d.At(27)-d.At(3)) > 1e-12 {
		t.Error("profile does not wrap at 24h")
	}
	// Monotone rise from trough to peak.
	prev := d.At(3)
	for h := 3.5; h <= 15; h += 0.5 {
		u := d.At(h)
		if u < prev-1e-12 {
			t.Fatalf("not monotone rising at hour %v", h)
		}
		prev = u
	}
}

func TestDiurnalBounds(t *testing.T) {
	d := Diurnal{Trough: 0.02, Peak: 0.10, TroughHour: 4}
	f := func(h float64) bool {
		if math.IsNaN(h) || math.IsInf(h, 0) {
			return true
		}
		u := d.At(h)
		return u >= d.Trough-1e-12 && u <= d.Peak+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDiurnalValidate(t *testing.T) {
	bad := []Diurnal{
		{Trough: -0.1, Peak: 0.2},
		{Trough: 0.3, Peak: 0.2},
		{Trough: 0.3, Peak: 1.0},
		{Trough: 0.1, Peak: 0.2, TroughHour: 24},
		// Non-finite fields, which no ordered comparison rejects.
		{Trough: math.NaN(), Peak: 0.2},
		{Trough: 0.1, Peak: math.NaN()},
		{Trough: math.NaN(), Peak: math.NaN()},
		{Trough: math.Inf(-1), Peak: 0.2},
		{Trough: 0.1, Peak: 0.2, TroughHour: math.NaN()},
		{Trough: 0.1, Peak: 0.2, TroughHour: math.Inf(1)},
	}
	for _, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", d)
		}
	}
}

func TestConstantProfile(t *testing.T) {
	c := Constant(0.25)
	for _, h := range []float64{0, 6, 12, 23.9} {
		if got := c.At(h); math.Abs(got-0.25) > 1e-12 {
			t.Errorf("Constant.At(%v) = %v", h, got)
		}
	}
}

func BenchmarkPoissonNext(b *testing.B) {
	s, err := NewPoisson(40, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Next()
	}
	_ = sink
}

// BenchmarkPair times the two-source merge every payload+cover flow and
// warm population user runs: Poisson payload and cover.
func BenchmarkPair(b *testing.B) {
	payload, _ := NewPoisson(40, xrand.New(1))
	cover, _ := NewPoisson(40, xrand.New(2))
	p := NewPair(*payload, *cover)
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += p.Next()
	}
	_ = sink
}

func BenchmarkOnOffNext(b *testing.B) {
	s := onOff(b, 100, 0.2, 0.3, 1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Next()
	}
	_ = sink
}

// The on-off source's modulation state persists across observation
// windows of one continuous stream — a fresh replica always restarts in a
// full ON burst, while a long-lived session drifts toward the stationary
// ON/OFF mix. This carried state is what the continuous-stream session
// protocol preserves and the i.i.d.-replica protocol erases.
func TestOnOffStateCarriesAcrossWindows(t *testing.T) {
	fresh := onOff(t, 80, 0.2, 0.2, 9)
	if on, left := fresh.on, fresh.left; !on || left <= 0 {
		t.Fatalf("fresh source state = (%v, %v), want ON with positive holding time", on, left)
	}
	// An uninterrupted run and a windowed run of the same seed must
	// produce the identical gap sequence: slicing a session into windows
	// does not perturb the process, because the state carries.
	continuous := onOff(t, 80, 0.2, 0.2, 9)
	windowed := onOff(t, 80, 0.2, 0.2, 9)
	ref := make([]float64, 200)
	for i := range ref {
		ref[i] = continuous.Next()
	}
	for w := 0; w < 10; w++ { // 10 windows of 20 = same 200 gaps
		for i := 0; i < 20; i++ {
			if got := windowed.Next(); got != ref[w*20+i] {
				t.Fatalf("window %d gap %d: %v != continuous %v", w, i, got, ref[w*20+i])
			}
		}
		// The carried holding time shrinks as stream time passes; a
		// rebuilt replica would reset it to a fresh draw each window.
		if left := windowed.left; left <= 0 {
			t.Fatalf("window %d: non-positive holding time %v", w, left)
		}
	}
	// A replica rebuilt per window (same seed) replays window 1 forever
	// instead of continuing — the bias the session protocol removes.
	replica := onOff(t, 80, 0.2, 0.2, 9)
	if on := replica.on; !on {
		t.Error("replica should restart in the ON state")
	}
	if got := replica.Next(); got != ref[0] {
		t.Errorf("rebuilt replica's first gap %v should replay %v", got, ref[0])
	}
}

// A Pair must emit exactly the union of its sources' arrivals, in time
// order, with correct origin labels.
func TestSuperposeMergesComponents(t *testing.T) {
	// Two deterministic CBR sources with incommensurate intervals.
	a := mustStart(t, 0)(CBRModel(10, 0)) // every 100 ms
	b := mustStart(t, 0)(CBRModel(3, 0))  // every 333.3 ms
	s := NewPair(*a, *b)
	if got, want := s.Rate(), 13.0; got != want {
		t.Errorf("Rate = %v, want %v", got, want)
	}
	var now float64
	counts := [2]int{}
	for i := 0; i < 130; i++ {
		gap, second := s.NextFrom()
		if gap < 0 {
			t.Fatalf("arrival %d: negative gap %v", i, gap)
		}
		now += gap
		if second {
			counts[1]++
		} else {
			counts[0]++
		}
	}
	// Over now seconds, component rates must be honored within one event.
	for i, rate := range []float64{10, 3} {
		want := now * rate
		if float64(counts[i]) < want-1.5 || float64(counts[i]) > want+1.5 {
			t.Errorf("component %d emitted %d arrivals over %.2fs, want ≈ %.1f", i, counts[i], now, want)
		}
	}
}

// A Pair of Poisson streams is a pure function of its sources: two
// merges built from the same seeds emit the same stream.
func TestSuperposeContinuesDeterministically(t *testing.T) {
	build := func() Pair[Model, Model, *Model, *Model] {
		a, _ := NewPoisson(20, xrand.New(5))
		b, _ := NewPoisson(7, xrand.New(6))
		return NewPair(*a, *b)
	}
	ref := build()
	got := build()
	for i := 0; i < 1000; i++ {
		rg, rs := ref.NextFrom()
		gg, gs := got.NextFrom()
		if rg != gg || rs != gs {
			t.Fatalf("arrival %d: (%v, %t) != (%v, %t)", i, gg, gs, rg, rs)
		}
	}
}

// TestSuperposePairAllocs: starting a Pair of Models in place and
// merging from it allocate nothing, with and without a second source,
// so a population user can hold its merge by value.
func TestSuperposePairAllocs(t *testing.T) {
	a, _ := PoissonModel(1)
	b, _ := PoissonModel(2)
	a.Start(xrand.NewStream(1))
	b.Start(xrand.NewStream(2))
	p := new(Pair[Model, Model, *Model, *Model])
	for _, second := range []Model{{}, b} {
		allocs := testing.AllocsPerRun(100, func() {
			p.Start(a, second)
			p.Next()
		})
		if allocs != 0 {
			t.Errorf("a Pair (second source none: %t) allocates %v times, want 0", second.None(), allocs)
		}
	}
}

// TestPairTieGoesToFirst: CBR payload and cover at one interval arrive
// together every time, and the payload, the first source, must win each
// tie; the cover follows at a gap of exactly zero.
func TestPairTieGoesToFirst(t *testing.T) {
	payload := mustStart(t, 0)(CBRModel(7, 0))
	cover := mustStart(t, 0)(CBRModel(7, 0))
	p := NewPair(*payload, *cover)
	for i := 0; i < 10_000; i++ {
		gap, second := p.NextFrom()
		if wantSecond := i%2 == 1; second != wantSecond {
			t.Fatalf("arrival %d: second source fired = %t, want %t", i, second, wantSecond)
		}
		if second && gap != 0 {
			t.Fatalf("arrival %d: the tied cover arrives after gap %v, want 0", i, gap)
		}
	}
}

// TestPairNoneSecond: with the zero Model as its second source the
// merge is the first source's stream: each gap is the difference of two consecutive
// arrival times of an identically seeded twin, bit for bit, no arrival
// is attributed to the absent source, and the rate is the twin's.
func TestPairNoneSecond(t *testing.T) {
	a, _ := NewPoisson(7, xrand.New(11))
	twin, _ := NewPoisson(7, xrand.New(11))
	p := NewPair(*a, Model{})
	if got, want := p.Rate(), twin.Rate(); got != want {
		t.Errorf("Rate = %v, want %v", got, want)
	}
	var prev, next float64
	for i := 0; i < 10_000; i++ {
		next += twin.Next()
		gap, second := p.NextFrom()
		if second {
			t.Fatalf("arrival %d attributed to the absent second source", i)
		}
		if want := next - prev; math.Float64bits(gap) != math.Float64bits(want) {
			t.Fatalf("arrival %d: gap %v, want %v", i, gap, want)
		}
		prev = next
	}
}

// TestPairNestedUnion: a Pair nested in a Pair merges payload, chaff and
// cover, and its stream is the time-ordered union of the three sources'
// arrivals, with the rate the sum of theirs.
func TestPairNestedUnion(t *testing.T) {
	rates := [3]float64{7, 3, 5} // payload, chaff, cover
	var srcs, twins [3]Source
	for i, r := range rates {
		srcs[i], _ = NewPoisson(r, xrand.New(uint64(20+i)))
		twins[i], _ = NewPoisson(r, xrand.New(uint64(20+i)))
	}
	inner := NewPair(Dynamic{srcs[0]}, Dynamic{srcs[1]})
	p := NewPair(inner, Dynamic{srcs[2]})
	if got, want := p.Rate(), twins[0].Rate()+twins[1].Rate()+twins[2].Rate(); got != want {
		t.Errorf("Rate = %v, want %v", got, want)
	}
	var next [3]float64
	for i, tw := range twins {
		next[i] = tw.Next()
	}
	var now float64
	for k := 0; k < 10_000; k++ {
		want := 0
		for i := 1; i < len(next); i++ {
			if next[i] < next[want] {
				want = i
			}
		}
		gap, cover := p.NextFrom()
		now += gap
		if cover != (want == 2) {
			t.Fatalf("arrival %d: cover %t, want source %d", k, cover, want)
		}
		// The outer merge sees the inner one's arrivals through its gaps,
		// so times agree to rounding, not bit for bit.
		if math.Abs(now-next[want]) > 1e-9*next[want] {
			t.Fatalf("arrival %d at %v, want source %d's at %v", k, now, want, next[want])
		}
		next[want] += twins[want].Next()
	}
}
