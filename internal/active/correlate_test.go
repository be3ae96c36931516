package active

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"linkpad/internal/adversary"
	"linkpad/internal/analytic"
	"linkpad/internal/cascade"
	"linkpad/internal/par"
	"linkpad/internal/stats"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// sourceStream adapts a traffic.Source to the absolute-time stream
// contract, mimicking an unpadded link.
type sourceStream struct {
	src traffic.Source
	now float64
}

func (s *sourceStream) Next() float64 {
	s.now += s.src.Next()
	return s.now
}

// chaffEngine builds a synthetic unpadded scenario: each flow is Poisson
// payload merged with keyed chaff (or plain payload when amp == 0),
// entirely inside the test — no core wiring.
func chaffEngine(t *testing.T, flows int, amp float64) *Engine {
	t.Helper()
	const chips, period = 32, 0.5
	decoys := make([]*Key, 12)
	for i := range decoys {
		decoys[i] = testKey(t, chips, period, uint64(1000+i))
	}
	build := func(f int) (*Flow, error) {
		key := testKey(t, chips, period, uint64(10+f))
		payload, err := traffic.NewPoisson(30, xrand.New(uint64(500+f)))
		if err != nil {
			return nil, err
		}
		var src traffic.Source = payload
		var inject func() InjectStats
		if amp > 0 {
			chaff, err := NewChaffSource(key, amp, xrand.New(uint64(900+f)))
			if err != nil {
				return nil, err
			}
			merge := traffic.NewPair(*payload, traffic.Dynamic{Source: chaff})
			src = &merge
			inject = func() InjectStats { return chaff.Stats() }
		}
		return &Flow{Route: cascade.Route{Exit: &sourceStream{src: src}}, Key: key, Inject: inject}, nil
	}
	e, err := NewEngine(flows, 0, ModeChaff, chips, period, decoys, build)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// detectCfg is the detector's configuration over duration seconds at the
// default feature window, with no classifiers.
func detectCfg(duration float64) adversary.CorrConfig {
	return adversary.CorrConfig{Duration: duration, FeatureWindow: 200}
}

// A strong chaff watermark on an unpadded stream must be detected for
// every flow, matched to the right flow, and leave essentially no
// anonymity; removing the watermark must drop detection to the decoy
// false-positive floor.
func TestDetectSyntheticChaff(t *testing.T) {
	cfg := detectCfg(40)
	res, err := Detect(context.Background(), chaffEngine(t, 6, 30), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots != 80 || res.Flows != 6 || res.Mode != "chaff" {
		t.Fatalf("echo fields wrong: %+v", res)
	}
	if res.DetectionRate != 1 {
		t.Fatalf("watermarked flows: detection %v, want 1 (z %v)", res.DetectionRate, res.ZTrue)
	}
	if res.MatchAccuracy != 1 || res.MeanRank != 1 {
		t.Fatalf("matching: acc %v rank %v, want perfect", res.MatchAccuracy, res.MeanRank)
	}
	if res.DegreeOfAnonymity > 0.3 {
		t.Fatalf("anonymity %v, want near 0 for an unpadded watermark", res.DegreeOfAnonymity)
	}
	if res.MeanZ < 5 {
		t.Fatalf("mean z %v, want strong", res.MeanZ)
	}
	// Injection accounting: chaff at 30 pps × duty cycle, counted over
	// the generated timeline.
	if res.InjectedPPS < 5 || res.InjectedPPS > 30 {
		t.Fatalf("injected pps %v out of range", res.InjectedPPS)
	}
	if res.MeanAddedDelay != 0 {
		t.Fatalf("chaff mode must not report added delay, got %v", res.MeanAddedDelay)
	}
	// Unpadded: route rate ≈ payload + injected chaff.
	if res.RoutePPS < 30 || res.RoutePPS > 50 {
		t.Fatalf("route pps %v, want ≈ payload+chaff", res.RoutePPS)
	}

	null, err := Detect(context.Background(), chaffEngine(t, 6, 1e-9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if null.DetectionRate > 0.2 {
		t.Fatalf("unwatermarked flows: detection %v, want ≈ 0 (z %v)", null.DetectionRate, null.ZTrue)
	}
	if null.DegreeOfAnonymity < 0.5 {
		t.Fatalf("unwatermarked anonymity %v, want high", null.DegreeOfAnonymity)
	}
}

// Detection must be byte-identical at any worker width: flows are the
// unit of parallelism and every reduction runs in flow order.
func TestDetectWorkerInvariance(t *testing.T) {
	run := func(workers int) *Result {
		cfg := detectCfg(24)
		cfg.Workers = workers
		res, err := Detect(context.Background(), chaffEngine(t, 5, 25), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
		if got := run(w); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: result differs\n got %+v\nwant %+v", w, got, ref)
		}
	}
}

func TestDetectValidation(t *testing.T) {
	e := chaffEngine(t, 4, 20)
	if _, err := Detect(context.Background(), nil, detectCfg(20)); err == nil {
		t.Error("nil engine should fail")
	}
	if _, err := Detect(context.Background(), e, detectCfg(0)); err == nil {
		t.Error("zero duration should fail")
	}
	if _, err := Detect(context.Background(), e, detectCfg(1)); err == nil {
		t.Error("too few slots should fail")
	}
	for _, cfg := range []adversary.CorrConfig{
		{Duration: 20},
		{Duration: 20, FeatureWindow: 1},
		{Duration: 20, FeatureWindow: 200, Extractors: []adversary.Extractor{{Feature: analytic.FeatureMean}}},
	} {
		if _, err := Detect(context.Background(), e, cfg); err == nil || !strings.HasPrefix(err.Error(), "active: ") {
			t.Errorf("zero or tiny feature window or unpaired extractor: got %v, want an active error", err)
		}
	}

	// A flow reporting the wrong hop count is a wiring bug, not data.
	bad, err := NewEngine(4, 2, ModeChaff, e.chips, e.period, e.decoys, func(f int) (*Flow, error) {
		fl, err := e.build(f)
		if err != nil {
			return nil, err
		}
		fl.Hops = []cascade.HopProbe{func() cascade.HopStats { return cascade.HopStats{Emitted: 1000} }}
		return fl, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Detect(context.Background(), bad, detectCfg(20)); err == nil || !strings.Contains(err.Error(), "hops") {
		t.Errorf("hop-count mismatch not rejected: %v", err)
	}
}

func TestSlotStats(t *testing.T) {
	// Two slots of width 1: slot 0 holds {0.1, 0.3, 0.7}, slot 1 holds
	// {1.5, 1.6}; a stray time past the window is ignored.
	times := []float64{0.1, 0.3, 0.7, 1.5, 1.6, 2.4}
	counts := make([]float64, 2)
	vars := make([]float64, 2)
	cents := make([]float64, 2)
	slotStats(times, 0, 1, 2, counts, vars, cents)
	if counts[0] != 3 || counts[1] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	// Slot 0 PIATs within the slot: {0.2, 0.4} → sample variance 0.02.
	if math.Abs(vars[0]-0.02) > 1e-12 {
		t.Fatalf("vars[0] = %v, want 0.02", vars[0])
	}
	// Slot 1 has a single within-slot PIAT → variance undefined → 0.
	if vars[1] != 0 {
		t.Fatalf("vars[1] = %v, want 0", vars[1])
	}
	// Centroids: mean in-slot position − 0.5.
	want0 := (0.1+0.3+0.7)/3 - 0.5
	want1 := (0.5+0.6)/2 - 0.5
	if math.Abs(cents[0]-want0) > 1e-12 || math.Abs(cents[1]-want1) > 1e-12 {
		t.Fatalf("cents = %v, want [%v %v]", cents, want0, want1)
	}
}

// The delay watermark must be detectable on an unpadded stream through
// the centroid/count channels.
func TestDetectSyntheticDelay(t *testing.T) {
	const chips, period = 32, 0.5
	decoys := make([]*Key, 12)
	for i := range decoys {
		decoys[i] = testKey(t, chips, period, uint64(2000+i))
	}
	build := func(f int) (*Flow, error) {
		key := testKey(t, chips, period, uint64(50+f))
		payload, err := traffic.NewPoisson(40, xrand.New(uint64(700+f)))
		if err != nil {
			return nil, err
		}
		ds, err := NewDelaySource(payload, key, 0.15)
		if err != nil {
			return nil, err
		}
		return &Flow{
			Route:  cascade.Route{Exit: &sourceStream{src: ds}},
			Key:    key,
			Inject: func() InjectStats { return ds.Stats() },
		}, nil
	}
	e, err := NewEngine(5, 0, ModeDelay, chips, period, decoys, build)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Detect(context.Background(), e, detectCfg(60))
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectionRate < 0.8 {
		t.Fatalf("delay watermark detection %v, want ≥ 0.8 (z %v)", res.DetectionRate, res.ZTrue)
	}
	if res.MeanAddedDelay <= 0 || res.MeanAddedDelay > 0.15 {
		t.Fatalf("mean added delay %v, want in (0, amplitude]", res.MeanAddedDelay)
	}
	if res.InjectedPPS != 0 {
		t.Fatalf("delay mode must not report chaff, got %v", res.InjectedPPS)
	}
}

// The detection hot path's allocation discipline: the per-slot channel
// reduction and the calibrate-and-score loop's centered dot product —
// the work repeated per flow and per (key, exit, channel) pair — run on
// preallocated buffers and allocate nothing.
func TestDetectAllocDiscipline(t *testing.T) {
	const slots, chips, period = 90, 32, 0.5
	key := testKey(t, chips, period, 42)
	rng := xrand.New(7)
	times := make([]float64, 0, 4096)
	now := 0.0
	for now < slots*period {
		now += rng.Exp(1.0 / 30)
		times = append(times, now)
	}
	counts := make([]float64, slots)
	vars := make([]float64, slots)
	cents := make([]float64, slots)
	chipVec := make([]float64, slots)
	if n := testing.AllocsPerRun(20, func() {
		slotStats(times, 0, period, slots, counts, vars, cents)
	}); n > 0 {
		t.Errorf("slotStats allocates %v per reduction, want 0", n)
	}
	fillChips(chipVec, key, 3)
	chipSS := adversary.Center(chipVec, chipVec)
	countSS := adversary.Center(counts, counts)
	if n := testing.AllocsPerRun(20, func() {
		adversary.CenteredCorr(chipVec, counts, chipSS, countSS)
		stats.Mean(counts)
		stats.StdDev(counts)
	}); n > 0 {
		t.Errorf("scoring loop allocates %v per pair, want 0", n)
	}
}

// cbrStream emits one packet per slot, at the slot's middle, pushed
// later by delay in the key's marked slots: its count and variance
// channels are constant, so their decoy spread is degenerate, and only
// the centroid channel carries the watermark.
type cbrStream struct {
	key    *Key
	period float64
	delay  float64
	k      int
}

func (s *cbrStream) Next() float64 {
	s.k++
	t := (float64(s.k) - 0.5) * s.period
	if s.key.Marked(t) {
		t += s.delay
	}
	return t
}

// Detect must reproduce the sequential two-pass scorer exactly, at any
// worker width, on an engine that exercises what the parallel centered
// scorer shares and skips: flows observed from two different first
// slots (so two chip matrices), and flows whose count and variance
// channels are degenerate (constant, so every decoy correlates at 0 and
// the decoy spread σ is 0, below the 1e-9 floor).
func TestDetectMatchesSequentialOracle(t *testing.T) {
	const chips, period = 32, 0.5
	decoys := make([]*Key, 12)
	for i := range decoys {
		decoys[i] = testKey(t, chips, period, uint64(3000+i))
	}
	build := func(f int) (*Flow, error) {
		key := testKey(t, chips, period, uint64(80+f))
		fl := &Flow{Key: key}
		if f%2 == 1 {
			fl.Start = 1.3 // first whole slot 3, not 0
		}
		if f%3 == 0 {
			fl.Exit = &cbrStream{key: key, period: period, delay: 0.125}
			return fl, nil
		}
		payload, err := traffic.NewPoisson(30, xrand.New(uint64(600+f)))
		if err != nil {
			return nil, err
		}
		chaff, err := NewChaffSource(key, 20, xrand.New(uint64(800+f)))
		if err != nil {
			return nil, err
		}
		src := traffic.NewPair(*payload, traffic.Dynamic{Source: chaff})
		fl.Exit, fl.Inject = &sourceStream{src: &src}, func() InjectStats { return chaff.Stats() }
		return fl, nil
	}
	e, err := NewEngine(7, 0, ModeChaff, chips, period, decoys, build)
	if err != nil {
		t.Fatal(err)
	}
	cfg := detectCfg(30)
	want, err := detectSequential(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.DetectionRate < 0.5 {
		t.Fatalf("oracle detection %v: the fixture should carry a watermark (z %v)", want.DetectionRate, want.ZTrue)
	}
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		cfg.Workers = w
		got, err := Detect(context.Background(), e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: Detect differs from the sequential oracle\n got %+v\nwant %+v", w, got, want)
		}
	}
	// The fixture's premises: two distinct first slots, and degenerate
	// channels on the constant-rate flows.
	obs := []flowObs{{k0: 0}, {k0: 3}, {k0: 0}}
	if g := groupByK0(obs); !reflect.DeepEqual(g, [][]int{{0, 2}, {1}}) {
		t.Fatalf("groupByK0 = %v", g)
	}
	flow, err := e.Flow(0)
	if err != nil {
		t.Fatal(err)
	}
	var times []float64
	for t := flow.Exit.Next(); t <= 30; t = flow.Exit.Next() {
		times = append(times, t)
	}
	counts, vars, cents := make([]float64, 60), make([]float64, 60), make([]float64, 60)
	slotStats(times, 0, period, 60, counts, vars, cents)
	if adversary.Center(counts, counts) != 0 || adversary.Center(vars, vars) != 0 || adversary.Center(cents, cents) == 0 {
		t.Fatal("constant-rate flow: want degenerate count and variance channels and a live centroid channel")
	}
}

// detectSequential is Detect as it stood before scoring went parallel on
// centered vectors: every (key, exit, channel) pair refills its chip
// vector and runs the two-pass Pearson coefficient, one exit flow after
// another. It is kept as the bit-identity oracle for Detect.
func detectSequential(e *Engine, cfg adversary.CorrConfig) (*Result, error) {
	if e == nil {
		return nil, errors.New("active: nil engine")
	}
	if !(cfg.Duration > 0) {
		return nil, errors.New("active: observation duration must be positive")
	}
	flows := e.flows
	workers := min(par.Workers(cfg.Workers), flows)
	exitClasses, err := adversary.NewExitClasses(cfg.Classifiers, cfg.Extractors, cfg.FeatureWindow, workers)
	if err != nil {
		return nil, fmt.Errorf("active: %w", err)
	}
	slots := int(cfg.Duration/e.period + 1e-9)
	if slots < 8 {
		return nil, errors.New("active: need at least eight whole slots over the duration")
	}

	obs := make([]flowObs, flows)
	classes := make([]int, flows)
	posts := make([][]float64, flows) // exit class log posteriors
	observed := make([]cascade.Observed, flows)
	exits := make([][]float64, workers) // reusable per-worker exit-time slabs
	err = par.MapWorker(flows, workers, func(worker, f int) error {
		flow, err := e.Flow(f)
		if err != nil {
			return fmt.Errorf("active: flow %d: %w", f, err)
		}
		o := &obs[f]
		classes[f] = flow.Class
		o.key = flow.Key
		if flow.Start > 0 {
			o.k0 = int(flow.Start/e.period) + 1
		}
		start := float64(o.k0) * e.period
		end := start + float64(slots)*e.period
		// Pull the exit stream through the whole chain into the worker's
		// reusable slab, dropping the partial-slot head after a warm-up.
		buf := exits[worker][:0]
		for {
			t := flow.Exit.Next()
			if t > end {
				break
			}
			if t <= start {
				continue
			}
			buf = append(buf, t)
		}
		exits[worker] = buf
		// The flow's observation is complete and this worker owns its
		// telemetry shard: publish the chain's counters (nil-safe).
		flow.Probe.Flush()
		o.stats = make([]float64, Channels*slots)
		slotStats(buf, start, e.period, slots,
			o.channel(0, slots), o.channel(1, slots), o.channel(2, slots))
		if flow.Inject != nil {
			o.inject = flow.Inject()
		}
		observed[f] = cascade.Observed{Start: start, End: end, Exits: len(buf), Hops: make([]cascade.HopStats, len(flow.Hops))}
		for h, probe := range flow.Hops {
			observed[f].Hops[h] = probe()
		}
		if posts[f], err = exitClasses.LogPosts(worker, buf); err != nil {
			return fmt.Errorf("active: flow %d: %w", f, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Sequential scoring in flow order: per exit flow, calibrate each
	// channel's null against the decoys, then z-score every candidate
	// key's best channel.
	chipVec := make([]float64, slots)
	decoyR := make([]float64, len(e.decoys))
	score := make([]float64, flows*flows)
	var mu, sigma [Channels]float64
	for f := 0; f < flows; f++ {
		o := &obs[f]
		for ch := 0; ch < Channels; ch++ {
			stat := o.channel(ch, slots)
			for d, dk := range e.decoys {
				fillChips(chipVec, dk, o.k0)
				r, err := pearsonOracle(chipVec, stat)
				if err != nil {
					return nil, err
				}
				decoyR[d] = r
			}
			mu[ch], sigma[ch] = stats.Mean(decoyR), stats.StdDev(decoyR)
		}
		for u := 0; u < flows; u++ {
			fillChips(chipVec, obs[u].key, o.k0)
			best := 0.0
			for ch := 0; ch < Channels; ch++ {
				if sigma[ch] < 1e-9 {
					continue // degenerate channel: no information
				}
				r, err := pearsonOracle(chipVec, o.channel(ch, slots))
				if err != nil {
					return nil, err
				}
				if z := (r - mu[ch]) / sigma[ch]; z > best {
					best = z
				}
			}
			score[u*flows+f] = best
		}
	}
	sum, err := adversary.SummarizeMatch(score, flows, posts, classes)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Flows: flows, Hops: e.hops, Mode: e.mode.String(), Slots: slots, ZTrue: make([]float64, flows),
		MatchAccuracy: sum.Accuracy, MeanRank: sum.MeanRank, ClassAccuracy: sum.ClassAccuracy,
		DegreeOfAnonymity: adversary.MeanAnonymity(score, flows),
	}
	detected := 0
	var zSum float64
	for f := 0; f < flows; f++ {
		z := score[f*flows+f]
		res.ZTrue[f] = z
		zSum += z
		if z >= threshold {
			detected++
		}
	}
	res.DetectionRate = float64(detected) / float64(flows)
	res.MeanZ = zSum / float64(flows)
	if err := reduceOverhead(res, obs, observed, e.hops); err != nil {
		return nil, fmt.Errorf("active: %w", err)
	}
	return res, nil
}

// pearsonOracle is the two-pass Pearson coefficient the centered kernel
// (adversary.Center, adversary.CenteredCorr) replaced, kept verbatim.
func pearsonOracle(a, b []float64) (float64, error) {
	if len(a) == 0 || len(a) != len(b) {
		return 0, errors.New("adversary: Pearson needs equal-length non-empty vectors")
	}
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return 0, nil
	}
	return sab / math.Sqrt(saa*sbb), nil
}

// BenchmarkDetectScore measures the matched filter's scoring stage alone
// at the route-watermark workload's geometry (64 flows, 16 decoys, 1,920
// slots), on every CPU, in ns per (key, exit, channel) pair.
func BenchmarkDetectScore(b *testing.B) {
	const flows, slots, chips, period = 64, 1920, 32, 0.5
	rng := xrand.New(5)
	newKey := func() *Key {
		k, err := NewKey(chips, period, rng)
		if err != nil {
			b.Fatal(err)
		}
		return k
	}
	decoys := make([]*Key, 16)
	for d := range decoys {
		decoys[d] = newKey()
	}
	obs := make([]flowObs, flows)
	for f := range obs {
		o := &obs[f]
		o.key = newKey()
		o.stats = make([]float64, Channels*slots)
		for i := range o.stats {
			o.stats[i] = rng.Normal(0, 1)
		}
		for ch := range o.ss {
			o.ss[ch] = adversary.Center(o.channel(ch, slots), o.channel(ch, slots))
		}
	}
	workers := par.Workers(0)
	b.ReportAllocs()
	for b.Loop() {
		scoreMatrix(obs, decoys, slots, workers)
	}
	pairs := flows * (flows + len(decoys)) * Channels
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs), "ns/pair")
}
