package main

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"linkpad/internal/adversary"
	"linkpad/internal/analytic"
	"linkpad/internal/bayes"
	"linkpad/internal/core"
	"linkpad/internal/obs"
	"linkpad/internal/population"
	"linkpad/internal/slab"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// tracer keeps spans in memory; they are written out when the run ends.
// Spans nest by call: a span opened inside another is its child.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
	open     []int
}

// span is one timed call: wall interval and the process CPU time spent.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	CPUNs    int64  `json:"cpu_ns"`
}

// span runs fn inside a span named name; a nil tracer only runs fn.
func (t *tracer) span(name string, fn func() error) error {
	_, _, err := t.measure(name, fn)
	return err
}

// measure runs fn inside a span and returns the process CPU seconds and
// the wall seconds it took.
func (t *tracer) measure(name string, fn func() error) (cpuS, wallS float64, err error) {
	if t == nil {
		return 0, 0, fn()
	}
	id, parent := len(t.spans), -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload})
	t.open = append(t.open, id)
	start, c0 := time.Now(), cpuSeconds()
	err = fn()
	cpuS, end := cpuSeconds()-c0, time.Now()
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.StartNs, s.EndNs = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	s.CPUNs = int64(cpuS * 1e9)
	return cpuS, end.Sub(start).Seconds(), err
}

// spanSummary aggregates the spans of one kind (the name up to its first
// space) for the run record.
type spanSummary struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	WallMs float64 `json:"wall_ms"`
	CPUMs  float64 `json:"cpu_ms"`
}

func summarize(spans []span) []spanSummary {
	var out []spanSummary
	idx := map[string]int{}
	for _, s := range spans {
		kind, _, _ := strings.Cut(s.Name, " ")
		i, ok := idx[kind]
		if !ok {
			i = len(out)
			idx[kind] = i
			out = append(out, spanSummary{Name: kind})
		}
		out[i].Count++
		out[i].WallMs += float64(s.EndNs-s.StartNs) / 1e6
		out[i].CPUMs += float64(s.CPUNs) / 1e6
	}
	return out
}

// tracedRun is -trace 1: an untraced pass, the same pass again with spans
// around NewSystem, Build and Run, then the layer replays. The traced pass
// must reproduce the untraced one's digests and counter deltas exactly.
func tracedRun(o options, ops []op, chk *checker, rec *record) ([]passResult, error) {
	untraced := runPass(ops, o.workers, nil)
	chk.pass(untraced)
	tr := &tracer{t0: time.Now(), workload: o.workload}
	var traced passResult
	_ = tr.span("pass", func() error {
		traced = runPass(ops, o.workers, tr)
		return nil
	})
	chk.pass(traced)
	for i := range ops {
		if traced.ops[i].ctr != untraced.ops[i].ctr {
			chk.failed++
			fmt.Fprintf(chk.stderr, "bench: op %s: traced counters differ from untraced\n", ops[i].name)
		}
	}
	l := &layers{tr: tr, seed: o.seed, workers: o.workers, cost: map[string]*[2]pooled{}, attr: map[string]float64{}}
	if err := l.replay(ops, untraced); err != nil {
		return nil, err
	}
	rec.Report.Metrics = l.metrics(untraced, traced)
	rec.spans, rec.Spans = tr.spans, summarize(tr.spans)
	return []passResult{untraced, traced}, nil
}

// Replay geometry. replayStream is the attack's first training window
// (core's windowStreamID(1, 0)), so the packet-path replays pull a stream
// the run itself pulled.
const (
	replayPkts   = 4 * slab.DefaultLen
	replayWindow = 1024
	replayStream = 1 + 1<<32
	replayReps   = 5 // KDE training and batch classification repeats
	replayFlows  = 8 // route flows pulled per cascade or active op
	growthRounds = 100
)

// shareLayers are the layers the untraced pass's CPU time is attributed to.
var shareLayers = []string{"traffic", "gateway", "netem", "adversary", "kde", "bayes",
	"population", "estimator", "cascade", "active"}

// pooled sums a replay's CPU seconds and the work units they bought.
type pooled struct{ cpu, units float64 }

// layers measures unit costs by replaying each layer from outside, and
// attributes the untraced pass's CPU seconds to layers: a layer's share
// is its unit cost times the pass's exact count of that unit.
type layers struct {
	tr      *tracer
	seed    uint64
	workers int
	// cost pools each per-layer metric's replays: [0] from the workload's
	// own ops, [1] from reference ops, used only when [0] is empty.
	cost   map[string]*[2]pooled
	attr   map[string]float64 // layer -> attributed CPU seconds
	growth [2][2]float64      // ML × adaptive estimator wall, [own, ref][first, last rounds]
}

func (l *layers) add(name string, ref bool, cpu, units float64) {
	p := l.cost[name]
	if p == nil {
		p = &[2]pooled{}
		l.cost[name] = p
	}
	i := 0
	if ref {
		i = 1
	}
	p[i].cpu += cpu
	p[i].units += units
}

// unit is a metric's cost per unit in seconds.
func (l *layers) unit(name string) float64 {
	p := l.cost[name]
	if p == nil {
		return 0
	}
	for _, q := range p {
		if q.units > 0 {
			return q.cpu / q.units
		}
	}
	return 0
}

func (l *layers) replay(ops []op, p passResult) error {
	refs := referenceOps(l.seed)
	for _, f := range []func([]op, []op, passResult) error{l.packetPath, l.classifiers, l.population, l.routes} {
		if err := f(ops, refs, p); err != nil {
			return err
		}
	}
	return nil
}

// packetPath replays the payload source alone, then for every distinct
// system its gateway (System.Gateway NextSlab) and its whole observation
// chain (System.PIATSource: gateway, netem hops, tap) on the same stream.
// Gateway self time subtracts the payload draws; netem self time is the
// chain minus the gateway.
func (l *layers) packetPath(ops, refs []op, p passResult) error {
	gaps := make([]float64, slab.DefaultLen)
	for class, r := range labConfig(l.seed).Rates {
		src, err := traffic.NewPoisson(r.PPS, xrand.New(l.seed+uint64(class)))
		if err != nil {
			return err
		}
		cpu, _, _ := l.tr.measure("traffic/Poisson.NextBatch", func() error {
			for i := 0; i < replayPkts/len(gaps); i++ {
				src.NextBatch(gaps)
			}
			return nil
		})
		l.add("traffic.ns_per_pkt", false, cpu, replayPkts)
	}
	gwS, netS := map[string]float64{}, map[string]float64{}
	for _, o := range append(append([]op(nil), ops...), refs...) {
		if _, ok := o.spec.(core.AttackSetSpec); !ok {
			continue
		}
		if _, done := gwS[o.sys]; done {
			continue
		}
		var err error
		if gwS[o.sys], netS[o.sys], err = l.chain(o); err != nil {
			return err
		}
	}
	trafficS := l.unit("traffic.ns_per_pkt")
	for i, o := range ops {
		if _, ok := o.spec.(core.AttackSetSpec); !ok {
			continue
		}
		c := &p.ops[i].ctr
		pkts := float64(c[obs.GatewayPayload] + c[obs.GatewayDummy])
		l.attr["traffic"] += trafficS * float64(c[obs.TrafficPayload])
		l.attr["gateway"] += gwS[o.sys] * pkts
		l.attr["netem"] += netS[o.sys] * pkts
	}
	return nil
}

// chain measures one system's gateway and netem self costs per packet.
func (l *layers) chain(o op) (gwS, netS float64, err error) {
	sys, err := core.NewSystem(o.cfg)
	if err != nil {
		return 0, 0, err
	}
	sl := slab.New(slab.DefaultLen)
	buf := make([]float64, slab.DefaultLen)
	trafficS := l.unit("traffic.ns_per_pkt")
	var gwSelf, net float64
	for class := range o.cfg.Rates {
		gw, err := sys.Gateway(class, replayStream)
		if err != nil {
			return 0, 0, err
		}
		gwCPU, _, _ := l.tr.measure("gateway/Gateway.NextSlab "+o.sys, func() error {
			for i := 0; i < replayPkts/slab.DefaultLen; i++ {
				gw.NextSlab(sl, slab.DefaultLen)
			}
			return nil
		})
		src, err := sys.PIATSource(class, replayStream)
		if err != nil {
			return 0, 0, err
		}
		chainCPU, _, _ := l.tr.measure("netem/PIATSource.NextBatch "+o.sys, func() error {
			pull(src, buf, replayPkts)
			return nil
		})
		gwSelf += gwCPU - trafficS*float64(gw.Stats().Arrivals)
		net += chainCPU - gwCPU
	}
	n := float64(replayPkts * len(o.cfg.Rates))
	l.add("gateway.ns_per_pkt", false, gwSelf, n)
	switch {
	case o.cfg.ExactNetwork:
		l.add("netem.exact_ns_per_pkt", false, net, n)
	case len(o.cfg.Hops) > 1:
		l.add("netem.path_ns_per_pkt", false, net, n)
	}
	return gwSelf / n, net / n, nil
}

// pull reads n PIATs from src in len(buf) batches. Every
// System.PIATSource chain ends in a batched netem.Differ.
func pull(src adversary.PIATSource, buf []float64, n int) {
	b := src.(interface{ NextBatch([]float64) })
	for done := 0; done < n; done += len(buf) {
		b.NextBatch(buf[:min(len(buf), n-done)])
	}
}

// classifiers replays feature extraction (MultiPipeline.ExtractFrom minus
// the same stream's pull), KDE training (bayes.TrainKDE) and batch
// classification (Classifier.ClassifyBatch) on the lab system, at every
// training size the workload's ops use.
func (l *layers) classifiers(ops, refs []op, p passResult) error {
	sys, err := core.NewSystem(labConfig(l.seed))
	if err != nil {
		return err
	}
	exts := []adversary.Extractor{{Feature: analytic.FeatureMean}, {Feature: analytic.FeatureVariance}, {Feature: analytic.FeatureEntropy}}
	mp, err := adversary.NewMultiPipeline(exts)
	if err != nil {
		return err
	}
	out := make([]float64, len(exts))
	buf := make([]float64, replayWindow)
	for class := range sys.Config().Rates {
		src, err := sys.PIATSource(class, replayStream)
		if err != nil {
			return err
		}
		all, _, err := l.tr.measure("adversary/MultiPipeline.ExtractFrom", func() error {
			for w := 0; w < replayPkts/replayWindow; w++ {
				if err := mp.ExtractFrom(src, replayWindow, out); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if src, err = sys.PIATSource(class, replayStream); err != nil {
			return err
		}
		pulled, _, _ := l.tr.measure("adversary/pull", func() error {
			for w := 0; w < replayPkts/replayWindow; w++ {
				pull(src, buf, replayWindow)
			}
			return nil
		})
		l.add("adversary.ns_per_piat", false, all-pulled, replayPkts)
	}
	adv := l.unit("adversary.ns_per_piat")
	for i, o := range ops {
		l.attr["adversary"] += adv * float64(p.ops[i].ctr[obs.AdvWindow]) * float64(classifierWork(o).window)
	}

	// KDE and Bayes at each training size the ops use, or the reference
	// ops' sizes when the ops train no classifier.
	sizes, ref := trainSizes(ops), false
	if len(sizes) == 0 {
		sizes, ref = trainSizes(refs), true
	}
	kdeS := map[int]float64{}
	for _, t := range sizes {
		if kdeS[t], err = l.kdeAt(sys, t, ref); err != nil {
			return err
		}
	}
	classify := l.unit("bayes.ns_per_window")
	for _, o := range ops {
		w := classifierWork(o)
		l.attr["kde"] += kdeS[w.train] * float64(w.densities)
		l.attr["bayes"] += classify * float64(w.classified)
	}
	return nil
}

// trainSizes lists the distinct classifier training sizes of ops.
func trainSizes(ops []op) []int {
	var sizes []int
	for _, o := range ops {
		if t := classifierWork(o).train; t > 0 && !slices.Contains(sizes, t) {
			sizes = append(sizes, t)
		}
	}
	return sizes
}

// kdeAt trains KDE classifiers on t variance features per class and
// classifies t windows with them; it returns seconds per class density.
func (l *layers) kdeAt(sys *core.System, t int, ref bool) (float64, error) {
	ext := []adversary.Extractor{{Feature: analytic.FeatureVariance}}
	classes := len(sys.Config().Rates)
	perClass := make([][]float64, classes)
	for c := range perClass {
		factory := func(w int) (adversary.PIATSource, error) {
			return sys.PIATSource(c, replayStream+uint64(w)<<32)
		}
		mat, err := adversary.FeatureMatrix(factory, ext, t, 64, l.workers)
		if err != nil {
			return 0, err
		}
		perClass[c] = mat[0]
	}
	var cls *bayes.Classifier
	train, _, err := l.tr.measure(fmt.Sprintf("kde/TrainKDE t=%d", t), func() (err error) {
		for r := 0; r < replayReps; r++ {
			if cls, err = bayes.TrainKDE(sys.Labels(), perClass, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	var preds []int
	classify, _, _ := l.tr.measure(fmt.Sprintf("bayes/ClassifyBatch t=%d", t), func() error {
		for r := 0; r < replayReps; r++ {
			preds = cls.ClassifyBatch(perClass[0], preds)
		}
		return nil
	})
	densities := float64(replayReps * classes)
	l.add("kde.train_ms", ref, train, densities)
	l.add("bayes.ns_per_window", ref, classify, float64(replayReps*t))
	return train / densities, nil
}

// work is an op's classifier workload: feature window length, training
// windows per class, class densities trained and windows batch-classified.
// Route ops score one window per flow outside ClassifyBatch; that stays
// unattributed.
type work struct{ window, train, densities, classified int }

func classifierWork(o op) work {
	classes := len(o.cfg.Rates)
	orDefault := func(v, def int) int {
		if v == 0 {
			return def
		}
		return v
	}
	switch sp := o.spec.(type) {
	case core.AttackSetSpec:
		a := sp.Attack
		f := len(sp.Features)
		return work{a.WindowSize, a.TrainWindows, f * classes, a.EvalWindows * classes * f}
	case core.CascadeCorrelationSpec:
		w := work{window: orDefault(sp.Corr.FeatureWindow, 200)}
		if f := len(sp.Corr.Features); f > 0 && len(sp.Cascade.Hops) > 0 {
			w.train, w.densities = orDefault(sp.Corr.TrainWindows, 120), f*classes
		}
		return w
	case core.ActiveDetectionSpec:
		w := work{window: orDefault(sp.Detect.FeatureWindow, 200)}
		if f := len(sp.Detect.Features); f > 0 && !sp.Active.Raw {
			w.train, w.densities = orDefault(sp.Detect.TrainWindows, 120), f*classes
		}
		return w
	}
	return work{}
}

var estimatorMetric = map[population.EstimatorKind]string{
	population.EstimatorClassic:      "estimator.classic_us_per_round",
	population.EstimatorLeastSquares: "estimator.ls_us_per_round",
	population.EstimatorML:           "estimator.ml_us_per_round",
}

// population replays every disclosure op twice: the whole attack on a
// twin engine (Engine.StartDisclosure, then DisclosureRun.Step(1) per
// round), and the engine and mix alone (Engine.NewMix(..).NextRound) for
// the same rounds. The estimator's cost — estimator, dummy policy and
// checkpoint tests — is the difference. Reference cells stand in for an
// estimator kind, or the ML × adaptive cell, the workload lacks.
func (l *layers) population(ops, refs []op, p passResult) error {
	own := map[population.EstimatorKind]bool{}
	ownGrowth := false
	for i, o := range ops {
		if sp, ok := o.spec.(core.DisclosureSpec); ok {
			own[sp.Disclosure.Estimator] = true
			ownGrowth = ownGrowth || mlAdaptive(sp)
			if err := l.cell(o, false, &p.ops[i].ctr); err != nil {
				return err
			}
		}
	}
	for _, o := range refs {
		sp, ok := o.spec.(core.DisclosureSpec)
		if ok && (len(own) == 0 || !own[sp.Disclosure.Estimator] || (mlAdaptive(sp) && !ownGrowth)) {
			if err := l.cell(o, true, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// mlAdaptive marks the ML × adaptive cells, whose per-round cost grows.
func mlAdaptive(sp core.DisclosureSpec) bool {
	return sp.Disclosure.Estimator == population.EstimatorML && sp.Population.Dummies == population.DummyAdaptive
}

func (l *layers) cell(o op, ref bool, ctr *[obs.NumCounters]uint64) error {
	sp := o.spec.(core.DisclosureSpec)
	sys, err := core.NewSystem(o.cfg)
	if err != nil {
		return err
	}
	cfg := sp.Disclosure
	cfg.Dummies = sp.Population.Dummies
	cfg.Workers = l.workers
	cfg = cfg.WithDefaults(sp.Population.Users)

	var eng *population.Engine
	build := func() (err error) {
		eng, err = sys.NewPopulation(sp.Population)
		return err
	}
	buildCPU, _, err := l.tr.measure("population/NewPopulation "+o.name, build)
	if err != nil {
		return err
	}
	run, err := eng.StartDisclosure(cfg)
	if err != nil {
		return err
	}
	var stepCPU float64
	var stepWall []float64
	for !run.Done() {
		cpu, wall, err := l.tr.measure("estimator/DisclosureRun.Step", func() error {
			_, err := run.Step(1)
			return err
		})
		if err != nil {
			return err
		}
		stepCPU += cpu
		stepWall = append(stepWall, wall)
	}
	rounds := run.Observed()
	eng, run = nil, nil
	runtime.GC()

	cpu, _, err := l.tr.measure("population/NewPopulation "+o.name, build)
	if err != nil {
		return err
	}
	buildCPU += cpu
	eng.SetWorkers(l.workers)
	mix, err := eng.NewMix(cfg.Mix, cfg.Batch)
	if err != nil {
		return err
	}
	var r population.Round
	var mixCPU float64
	mixWall := make([]float64, rounds)
	for i := range mixWall {
		cpu, wall, err := l.tr.measure("population/MixPolicy.NextRound", func() error { return mix.NextRound(&r) })
		if err != nil {
			return err
		}
		mixCPU += cpu
		mixWall[i] = wall
	}
	warm := float64(eng.WarmUsers()) / float64(eng.Users())
	eng, mix = nil, nil
	runtime.GC()

	n := float64(rounds)
	l.add("population.build_ms", ref, buildCPU, 2)
	l.add("population.round_us", ref, mixCPU, n)
	l.add("population.warm_frac", ref, warm, 1)
	l.add(estimatorMetric[cfg.Estimator], ref, stepCPU-mixCPU, n)
	if mlAdaptive(sp) {
		g := &l.growth[0]
		if ref {
			g = &l.growth[1]
		}
		w := min(growthRounds, rounds/2)
		for i := 0; i < w; i++ {
			g[0] += stepWall[i] - mixWall[i]
			g[1] += stepWall[rounds-w+i] - mixWall[rounds-w+i]
		}
	}
	if ctr != nil {
		done := float64(ctr[obs.PopulationRound])
		l.attr["population"] += buildCPU/2 + mixCPU/n*done
		l.attr["estimator"] += (stepCPU - mixCPU) / n * done
	}
	return nil
}

// routes replays route pulls: System.NewCascade(spec).Route(f).Exit and
// System.NewActive(spec).Flow(f).Exit for the op's observation time, on
// the first replayFlows flows. Costs are per padded packet emitted, which
// on a cascade counts every hop's emission.
func (l *layers) routes(ops, refs []op, p passResult) error {
	own := map[string]bool{}
	for i, o := range ops {
		layer, err := l.route(o, false, &p.ops[i].ctr)
		if err != nil {
			return err
		}
		own[layer] = true
	}
	for _, o := range refs {
		if layer := routeLayer(o); layer != "" && !own[layer] {
			if _, err := l.route(o, true, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

var routeMetric = map[string]string{"cascade": "cascade.ns_per_pkt_hop", "active": "active.ns_per_pkt"}

// routeLayer names the layer a route op's padded packets belong to, or ""
// when the op pads nothing (no cascade hops, or an unpadded active flow).
func routeLayer(o op) string {
	switch sp := o.spec.(type) {
	case core.CascadeCorrelationSpec:
		if len(sp.Cascade.Hops) > 0 {
			return "cascade"
		}
	case core.ActiveDetectionSpec:
		if !sp.Active.Raw {
			return "active"
		}
	}
	return ""
}

func (l *layers) route(o op, ref bool, ctr *[obs.NumCounters]uint64) (string, error) {
	layer := routeLayer(o)
	if layer == "" {
		return "", nil
	}
	sys, err := core.NewSystem(o.cfg)
	if err != nil {
		return "", err
	}
	var pullFlows func() error
	switch sp := o.spec.(type) {
	case core.CascadeCorrelationSpec:
		eng, err := sys.NewCascade(sp.Cascade)
		if err != nil {
			return "", err
		}
		pullFlows = func() error {
			for f := 0; f < min(replayFlows, eng.Flows()); f++ {
				route, err := eng.Route(f)
				if err != nil {
					return err
				}
				for route.Exit.Next() <= sp.Corr.Duration {
				}
				route.Probe.Flush()
			}
			return nil
		}
	case core.ActiveDetectionSpec:
		eng, err := sys.NewActive(sp.Active)
		if err != nil {
			return "", err
		}
		pullFlows = func() error {
			for f := 0; f < min(replayFlows, eng.Flows()); f++ {
				fl, err := eng.Flow(f)
				if err != nil {
					return err
				}
				for fl.Exit.Next() <= fl.Start+sp.Detect.Duration {
				}
				fl.Probe.Flush()
			}
			return nil
		}
	}
	before := obs.Packets(obs.Snapshot())
	cpu, _, err := l.tr.measure(layer+"/Exit.Next "+o.name, pullFlows)
	if err != nil {
		return "", err
	}
	pkts := float64(obs.Packets(obs.Snapshot()) - before)
	l.add(routeMetric[layer], ref, cpu, pkts)
	if ctr != nil && pkts > 0 {
		l.attr[layer] += cpu / pkts * float64(obs.Packets(*ctr))
	}
	return layer, nil
}

// metrics assembles the per-layer metrics of BENCHMARK.json.
func (l *layers) metrics(untraced, traced passResult) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	for _, c := range []struct {
		name, unit string
		scale      float64
	}{
		{"traffic.ns_per_pkt", "ns", 1e9},
		{"gateway.ns_per_pkt", "ns", 1e9},
		{"netem.path_ns_per_pkt", "ns", 1e9},
		{"netem.exact_ns_per_pkt", "ns", 1e9},
		{"adversary.ns_per_piat", "ns", 1e9},
		{"kde.train_ms", "ms", 1e3},
		{"bayes.ns_per_window", "ns", 1e9},
		{"population.build_ms", "ms", 1e3},
		{"population.round_us", "us", 1e6},
		{"population.warm_frac", "ratio", 1},
		{"estimator.classic_us_per_round", "us", 1e6},
		{"estimator.ls_us_per_round", "us", 1e6},
		{"estimator.ml_us_per_round", "us", 1e6},
		{"cascade.ns_per_pkt_hop", "ns", 1e9},
		{"active.ns_per_pkt", "ns", 1e9},
	} {
		put(c.name, l.unit(c.name)*c.scale, c.unit)
	}
	g := l.growth[0]
	if g[0] == 0 {
		g = l.growth[1]
	}
	put("estimator.ml_adaptive_growth", g[1]/g[0], "ratio")

	var attributed float64
	for _, layer := range shareLayers {
		s := l.attr[layer] / untraced.cpuS
		attributed += s
		put(layer+".share", s, "fraction")
	}
	put("unattributed.share", 1-attributed, "fraction")
	put("par.cpu_util", untraced.cpuS/(untraced.wallS*float64(l.workers)), "ratio")

	var ctr [obs.NumCounters]uint64
	for _, o := range untraced.ops {
		for c := range ctr {
			ctr[c] += o.ctr[c]
		}
	}
	padded := ctr[obs.GatewayPayload] + ctr[obs.GatewayDummy]
	dummyFrac := 0.0
	if padded > 0 {
		dummyFrac = float64(ctr[obs.GatewayDummy]) / float64(padded)
	}
	put("gateway.pkts", float64(padded), "count")
	put("gateway.dummy_frac", dummyFrac, "ratio")
	put("adversary.windows", float64(ctr[obs.AdvWindow]), "count")
	put("population.rounds", float64(ctr[obs.PopulationRound]), "count")
	put("population.messages", float64(ctr[obs.PopulationMessage]), "count")
	put("trace.overhead_frac", traced.wallS/untraced.wallS-1, "ratio")
	return m
}
