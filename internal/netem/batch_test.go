package netem

import (
	"testing"

	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// netemCase is one entry of the netem equivalence table: mk builds the
// element under test from a seed, and ref, when set, builds an
// independent implementation of the same stream — a different code path
// that must emit the bit-identical sequence. Without ref the element is
// its own reference, which checks that its output does not depend on
// how it is chunked. chunks, when set, replaces the default chunk sizes
// the element under test is pulled with.
type netemCase struct {
	mk, ref func(seed uint64) BatchStream
	chunks  []int
}

// netemBatchCases builds the table. Each factory is called once per
// instance, so the reference and the element under test draw from
// identically-seeded generators.
func netemBatchCases(t *testing.T) map[string]netemCase {
	t.Helper()
	baseAt := func(rate float64, master *xrand.Rand) TimeStream {
		p, err := traffic.NewPoisson(rate, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		// An absolute-time stream: cumulative Poisson arrivals.
		return &cumStream{src: p}
	}
	base := func(master *xrand.Rand) TimeStream { return baseAt(100, master) }
	// fastAt builds a FastRouter behind a Poisson upstream of the given
	// rate; a low rate makes each slab span minutes to hours of the
	// diurnal profile.
	fastAt := func(rate float64, util Util) func(seed uint64) BatchStream {
		return func(seed uint64) BatchStream {
			master := xrand.New(seed)
			up := baseAt(rate, master)
			r, err := NewFastRouter(up, 1e-4, util, 1e-3, master.Split())
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
	}
	fast := func(util Util) func(seed uint64) BatchStream { return fastAt(100, util) }
	impair := func(im *Impairment) func(seed uint64) BatchStream {
		return func(seed uint64) BatchStream {
			master := xrand.New(seed)
			up := base(master)
			p, err := NewImpairer(up, im, master.Split(), nil)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	// exact builds a Router behind a Poisson upstream whose cross
	// traffic is the given Model, started on its own stream.
	exact := func(cross func() (traffic.Model, error)) func(seed uint64) BatchStream {
		return func(seed uint64) BatchStream {
			master := xrand.New(seed)
			up := base(master)
			m, err := cross()
			if err != nil {
				t.Fatal(err)
			}
			m.Start(master.Split().Stream)
			r, err := NewRouter(up, m, 1e-4, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
	}
	// generic wraps a profile in a UtilFunc, which the FastRouter cannot
	// devirtualize: the oracle for its bounded-ρ constant and diurnal loop.
	generic := func(u Util) Util { return UtilFunc(u.At) }
	one := func(mk func(seed uint64) BatchStream) netemCase { return netemCase{mk: mk} }
	// vsGeneric pits the devirtualized loop for a profile, behind an
	// upstream of the given rate, against the same profile's generic path.
	vsGeneric := func(rate float64, u Util) netemCase {
		return netemCase{mk: fastAt(rate, u), ref: fastAt(rate, generic(u))}
	}
	diurnal := DiurnalUtil(traffic.Diurnal{Trough: 0.2, Peak: 0.7, TroughHour: 3}, 9)
	profile := func(trough, peak, startHour float64) Util {
		return DiurnalUtil(traffic.Diurnal{Trough: trough, Peak: peak, TroughHour: 3}, startHour)
	}
	return map[string]netemCase{
		"fastrouter-idle":     one(fast(constUtil(0))),
		"fastrouter-const":    one(fast(constUtil(0.6))),
		"fastrouter-overload": one(fast(constUtil(1.4))),
		"fastrouter-diurnal":  one(fast(diurnal)),
		"fastrouter-func": one(fast(UtilFunc(func(t float64) float64 {
			return 0.3 + 0.2*float64(int(t)%2)
		}))),
		"fastrouter-idle-generic":     vsGeneric(100, constUtil(0)),
		"fastrouter-const-generic":    vsGeneric(100, constUtil(0.6)),
		"fastrouter-overload-generic": vsGeneric(100, constUtil(1.4)),
		"fastrouter-diurnal-generic":  vsGeneric(100, diurnal),
		// The slab bound straddles 0 around the trough: the exact path.
		"fastrouter-diurnal-trough0-generic": vsGeneric(100, profile(0, 0.4, 2.99)),
		// A run that crosses ρ = maxRho (10.77 h past the trough), so the
		// clamp falls inside slab bounds.
		"fastrouter-diurnal-clamp-generic": vsGeneric(1, profile(0.2, 0.97, 13.7)),
		// 23 h start, about 33 h long: the hour wraps through math.Mod twice.
		"fastrouter-diurnal-wrap-generic": vsGeneric(0.05, profile(0.05, 0.3, 23)),
		// DiurnalUtil does not validate: Peak below Trough.
		"fastrouter-diurnal-inverted-generic": vsGeneric(100, profile(0.4, 0.1, 9)),
		// Slabs spanning hours: bounds wider than the K = 1 band.
		"fastrouter-diurnal-wide-generic": vsGeneric(0.2, profile(0.05, 0.6, 0)),
		// One-packet slabs skip the bound.
		"fastrouter-diurnal-chunk1-generic": {
			mk: fast(diurnal), ref: fast(generic(diurnal)), chunks: []int{1},
		},
		"router-exact":       one(exact(func() (traffic.Model, error) { return traffic.PoissonModel(5000) })),
		"router-cbr-cross":   one(exact(func() (traffic.Model, error) { return traffic.CBRModel(5000, 1e-5) })),
		"router-train-cross": one(exact(func() (traffic.Model, error) { return traffic.TrainModel(5000, 5, 1e-5) })),
		"router-dedicated":   one(exact(func() (traffic.Model, error) { return traffic.Model{}, nil })),
		// The adversary's lossy tap: an Impairer with i.i.d. loss alone.
		"lossytap": one(impair(&Impairment{LossProb: 0.07})),
		"quantizer": one(func(seed uint64) BatchStream {
			master := xrand.New(seed)
			up := base(master)
			q, err := NewQuantizer(up, 1e-5)
			if err != nil {
				t.Fatal(err)
			}
			return q
		}),
		"impair-loss":    one(impair(&Impairment{LossProb: 0.1})),
		"impair-dup":     one(impair(&Impairment{DupProb: 0.15})),
		"impair-reorder": one(impair(&Impairment{ReorderProb: 0.1, ReorderDepth: 3})),
		"impair-ge": one(impair(&Impairment{
			GE: &GilbertElliott{PGoodBad: 0.02, PBadGood: 0.3, LossGood: 0.001, LossBad: 0.4},
		})),
		"impair-all": one(impair(&Impairment{
			LossProb: 0.05, DupProb: 0.1, ReorderProb: 0.08, ReorderDepth: 4,
			GE: &GilbertElliott{PGoodBad: 0.01, PBadGood: 0.2, LossGood: 0, LossBad: 0.5},
		})),
		"differ-chain": one(func(seed uint64) BatchStream {
			master := xrand.New(seed)
			up := base(master)
			r, err := NewFastRouter(up, 1e-4, constUtil(0.5), 1e-3, master.Split())
			if err != nil {
				t.Fatal(err)
			}
			return NewDiffer(r, nil)
		}),
	}
}

// cumStream turns a gap source into an absolute-time stream.
type cumStream struct {
	src *traffic.Model
	now float64
}

func (c *cumStream) Next() float64 {
	c.now += c.src.Next()
	return c.now
}

func (c *cumStream) NextBatch(dst []float64) {
	c.src.NextBatch(dst)
	now := c.now
	for i := range dst {
		now += dst[i]
		dst[i] = now
	}
	c.now = now
}

// TestNetemBatchMatchesPull checks every netem element's NextBatch,
// across awkward chunk sizes, against its reference pulled one packet at
// a time through Next: bit-identical output streams.
func TestNetemBatchMatchesPull(t *testing.T) {
	const total = 6000
	for name, c := range netemBatchCases(t) {
		t.Run(name, func(t *testing.T) {
			ref := c.ref
			if ref == nil {
				ref = c.mk
			}
			chunks := c.chunks
			if chunks == nil {
				chunks = []int{1, 3, 17, 255, 4096}
			}
			for _, seed := range []uint64{2, 23} {
				pull := ref(seed)
				batch := c.mk(seed)
				want := make([]float64, total)
				for i := range want {
					want[i] = pull.Next()
				}
				got := make([]float64, 0, total)
				for ci := 0; len(got) < total; ci++ {
					k := min(chunks[ci%len(chunks)], total-len(got))
					buf := make([]float64, k)
					batch.NextBatch(buf)
					got = append(got, buf...)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d event %d: batch %v != pull %v", seed, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestDifferSkipAndPIATsBatched checks that Skip and PIATs, which pull
// whole slabs, leave the Differ in the bit-identical state as per-packet
// pulls.
func TestDifferSkipAndPIATsBatched(t *testing.T) {
	mk := func(seed uint64) *Differ {
		master := xrand.New(seed)
		p, err := traffic.NewPoisson(100, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewFastRouter(&cumStream{src: p}, 1e-4, constUtil(0.5), 1e-3, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		return NewDiffer(r, nil)
	}
	pull, batch := mk(7), mk(7)
	for i := 0; i < 5000; i++ {
		pull.Next()
	}
	batch.Skip(5000)
	if pull.Now() != batch.Now() {
		t.Fatalf("after skip: pull clock %v != batch clock %v", pull.Now(), batch.Now())
	}
	want := make([]float64, 700)
	for i := range want {
		want[i] = pull.Next()
	}
	got := batch.PIATs(700)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PIAT %d: batch %v != pull %v", i, got[i], want[i])
		}
	}
}

// benchPullBatch reports both traversal modes of one element, one packet
// per iteration either way, so ns/op compares directly: the pull mode
// calls Next per packet, the batch mode amortizes a whole slab.
func benchPullBatch(b *testing.B, mk func() BatchStream) {
	b.Run("pull", func(b *testing.B) {
		s := mk()
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += s.Next()
		}
		_ = sink
	})
	b.Run("batch", func(b *testing.B) {
		s := mk()
		buf := make([]float64, 4096)
		s.NextBatch(buf) // warm internal buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += len(buf) {
			s.NextBatch(buf)
		}
	})
}

// BenchmarkPathHop measures the FastRouter hot path — the inner loop of
// every multi-hop experiment — in both traversal modes, at the constant
// and diurnal profiles.
func BenchmarkPathHop(b *testing.B) {
	mk := func(util Util) func() BatchStream {
		return func() BatchStream {
			master := xrand.New(1)
			p, err := traffic.NewPoisson(100, master.Split())
			if err != nil {
				b.Fatal(err)
			}
			r, err := NewFastRouter(&cumStream{src: p}, 1e-4, util, 1e-3, master.Split())
			if err != nil {
				b.Fatal(err)
			}
			return r
		}
	}
	b.Run("const", func(b *testing.B) { benchPullBatch(b, mk(constUtil(0.6))) })
	b.Run("diurnal", func(b *testing.B) {
		benchPullBatch(b, mk(DiurnalUtil(traffic.Diurnal{Trough: 0.2, Peak: 0.7, TroughHour: 3}, 9)))
	})
	// wan15 is the Fig. 8b path: a pre-generated padded stream through
	// 15 OC-12 hops (622 Mb/s, 1500 B) at the WAN diurnal load, pulled a
	// 1000-PIAT window at a time. The upstream is a replayed slice, so
	// the time is the hops'; ns/pkt-hop is the cost the benchmark's
	// netem.share measures.
	b.Run("wan15", func(b *testing.B) {
		const nHops = 15
		r := xrand.New(1)
		gaps := make([]float64, 4096)
		for i := range gaps {
			gaps[i] = r.TruncNormal(0.01, 20e-6, 0) // 100 pps CIT timer jitter
		}
		util := DiurnalUtil(traffic.Diurnal{Trough: 0.05, Peak: 0.30, TroughHour: 3}, 0)
		path, err := NewPath(&replayStream{gaps: gaps}, uniformHops(nHops, ServiceTime(622e6, 1500), util, 2e-3), r)
		if err != nil {
			b.Fatal(err)
		}
		s := path.(BatchStream)
		buf := make([]float64, 1000)
		b.ReportAllocs()
		b.ResetTimer()
		pkts := 0
		for ; pkts < b.N; pkts += len(buf) {
			s.NextBatch(buf)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pkts*nHops), "ns/pkt-hop")
	})
}

// replayStream is an absolute-time stream that cycles a fixed gap
// sequence: a padded stream that costs one add per packet to produce.
type replayStream struct {
	gaps []float64
	i    int
	now  float64
}

func (p *replayStream) Next() float64 {
	p.now += p.gaps[p.i]
	p.i = (p.i + 1) % len(p.gaps)
	return p.now
}

func (p *replayStream) NextBatch(dst []float64) {
	for i := range dst {
		dst[i] = p.Next()
	}
}

// BenchmarkExactHop measures the exact FIFO router with Poisson cross
// traffic at 25 cross packets per padded packet (the validate-exactnet
// regime) in both traversal modes; the train sub-benchmark carries the
// same cross load as packet trains (ablation-crossmodel's burstier
// model), which drain through Model.NextBatch's per-gap branch.
func BenchmarkExactHop(b *testing.B) {
	mk := func(cross func() (traffic.Model, error)) func() BatchStream {
		return func() BatchStream {
			master := xrand.New(1)
			p, err := traffic.NewPoisson(100, master.Split())
			if err != nil {
				b.Fatal(err)
			}
			m, err := cross()
			if err != nil {
				b.Fatal(err)
			}
			m.Start(master.Split().Stream)
			r, err := NewRouter(&cumStream{src: p}, m, 1e-4, 1e-3)
			if err != nil {
				b.Fatal(err)
			}
			return r
		}
	}
	benchPullBatch(b, mk(func() (traffic.Model, error) { return traffic.PoissonModel(2500) }))
	b.Run("train", func(b *testing.B) {
		benchPullBatch(b, mk(func() (traffic.Model, error) { return traffic.TrainModel(2500, 5, 1e-5) }))
	})
}

// BenchmarkImpairSlab measures the Impairer with every knob on in both
// traversal modes.
func BenchmarkImpairSlab(b *testing.B) {
	benchPullBatch(b, func() BatchStream {
		master := xrand.New(1)
		p, err := traffic.NewPoisson(100, master.Split())
		if err != nil {
			b.Fatal(err)
		}
		im := &Impairment{
			LossProb: 0.05, DupProb: 0.1, ReorderProb: 0.08, ReorderDepth: 4,
			GE: &GilbertElliott{PGoodBad: 0.01, PBadGood: 0.2, LossGood: 0, LossBad: 0.5},
		}
		imp, err := NewImpairer(&cumStream{src: p}, im, master.Split(), nil)
		if err != nil {
			b.Fatal(err)
		}
		return imp
	})
}

// TestNetemBatchAllocFree pins each element at zero allocations in
// steady state (internal chunk buffers are warmed by one prior slab):
// per slab, and per one-packet pull through Next, whose one-packet cell
// must not escape to the heap.
func TestNetemBatchAllocFree(t *testing.T) {
	buf := make([]float64, 4096)
	for name, c := range netemBatchCases(t) {
		t.Run(name, func(t *testing.T) {
			s := c.mk(1)
			s.NextBatch(buf)
			if n := testing.AllocsPerRun(10, func() { s.NextBatch(buf) }); n != 0 {
				t.Fatalf("NextBatch allocates %v times per slab; want 0", n)
			}
			if n := testing.AllocsPerRun(1000, func() { s.Next() }); n != 0 {
				t.Fatalf("Next allocates %v times per packet; want 0", n)
			}
		})
	}
}
