package active

import (
	"context"
	"errors"
	"fmt"

	"linkpad/internal/adversary"
	"linkpad/internal/cascade"
	"linkpad/internal/netem"
	"linkpad/internal/par"
	"linkpad/internal/stats"
)

// Matched-filter detection (correlate.go): the adversary reduces each
// exit stream to three per-slot channels and correlates every channel
// against candidate keys' chip sequences:
//
//   - count: packets per slot — the rate channel. Chaff survives here
//     whenever the countermeasure forwards rate fluctuations (unpadded
//     links, batching mixes); timer padding flattens it.
//   - variance: PIAT sample variance per slot — the paper's blocking
//     channel weaponized. Timer gateways emit at a constant rate, but
//     marked-slot arrivals (chaff, or pile-ups behind a delay watermark)
//     inflate the compound blocking jitter, so the PIATs of marked slots
//     are measurably noisier.
//   - centroid: mean in-slot position of packet times — the
//     interval-centroid channel of delay watermarking. A constant delay
//     shifts marked-slot packets late within their slot; timer padding
//     erases it because departures sit on the timer grid.
//
// Each channel's Pearson correlation (both sides centered once, then one
// dot product per pair) is calibrated into a z-score against the
// engine's decoy keys evaluated on the same exit flow, so the detector
// normalizes per-flow, per-channel noise (whatever the countermeasure
// made of it) without hand-tuned thresholds; a flow's score is the best
// channel's z. The flow's own key detects the watermark (z ≥
// threshold); the full key × exit score matrix yields greedy flow
// matching and the degree of anonymity, exactly as in the passive
// correlation attacks.

// Result reports one active-adversary detection run.
type Result struct {
	// Flows, Hops and Mode echo the engine.
	Flows int
	Hops  int
	Mode  string
	// Slots is the number of matched-filter slots per flow.
	Slots int
	// DetectionRate is the fraction of flows whose own watermark key
	// scored z ≥ threshold at that flow's exit.
	DetectionRate float64
	// MeanZ averages the own-key z-score over flows — the raw strength
	// of the watermark surviving the countermeasure.
	MeanZ float64
	// ZTrue is each flow's own-key z-score, in flow order.
	ZTrue []float64
	// MatchAccuracy is the fraction of exit flows the greedy matching
	// assigned to their true key.
	MatchAccuracy float64
	// MeanRank averages the rank (1 = best) of the true key in each exit
	// flow's score ordering.
	MeanRank float64
	// DegreeOfAnonymity averages the normalized entropy of the per-flow
	// match posterior (softmax over each exit flow's z column): 1 means
	// the watermark tells the adversary nothing, 0 means identified.
	DegreeOfAnonymity float64
	// ClassAccuracy is the fraction of flows whose rate class the exit
	// PIAT features identified (0 when no classifiers were supplied).
	ClassAccuracy float64
	// InjectedPPS is the attacker's mean chaff rate per flow in
	// packets/second (0 in delay mode).
	InjectedPPS float64
	// MeanAddedDelay is the mean injected delay per payload packet in
	// seconds (0 in chaff mode).
	MeanAddedDelay float64
	// HopPPS is each hop's mean emitted packet rate per flow, entry hop
	// first; HopDummyFrac is each hop's dummy fraction.
	HopPPS       []float64
	HopDummyFrac []float64
	// RoutePPS sums HopPPS — the defense's bandwidth per flow. For
	// unpadded flows it is the exit stream's observed rate.
	RoutePPS float64
	// DummyFrac is the whole route's dummy fraction.
	DummyFrac float64
}

// Channels is the number of matched-filter channels (count, variance,
// centroid).
const Channels = 3

// threshold is the detection z-score: a ~0.1% false-positive rate
// against the decoy-calibrated null.
const threshold = 3

// flowObs is the reduced observation of one flow: centered per-slot
// channel vectors plus the bookkeeping the sequential reduction needs.
type flowObs struct {
	key       *Key
	k0        int               // first whole slot of the observation window
	start     float64           // absolute start of the observation window
	end       float64           // absolute end of the observation window
	stats     []float64         // [Channels][slots] flattened, centered
	ss        [Channels]float64 // each channel's sum of squares
	inject    InjectStats
	exitCount int
}

// channel returns the obs's centered per-slot vector for channel ch.
func (o *flowObs) channel(ch, slots int) []float64 {
	return o.stats[ch*slots : (ch+1)*slots]
}

// Detect runs the matched-filter attack end to end: simulate every
// watermarked flow (in parallel, flows as the unit of parallelism),
// reduce each exit to its centered per-slot channels, calibrate against
// the decoy keys and score every (key, exit) pair (in parallel over exit
// flows), and account the injection and padding overhead. The matched
// filter uses floor(cfg.Duration/period) whole slots past each flow's
// Start. Exit flow f's true key is flow f's key; the adversary's scores
// never read that identity, only the observations. ctx is checked
// before each flow is simulated; once it is done, Detect fails with its
// cause.
func Detect(ctx context.Context, e *Engine, cfg adversary.CorrConfig) (*Result, error) {
	if e == nil {
		return nil, errors.New("active: nil engine")
	}
	if !(cfg.Duration > 0) {
		return nil, errors.New("active: observation duration must be positive")
	}
	slots := int(cfg.Duration/e.period + 1e-9)
	if slots < 8 {
		return nil, errors.New("active: need at least eight whole slots over the duration")
	}

	flows := e.flows
	obs := make([]flowObs, flows)
	hopStats := make([][]cascade.HopStats, flows)
	exits := make([][]float64, par.Workers(cfg.Workers)) // reusable per-worker exit-time slabs
	set, err := adversary.ObserveFlows(ctx, flows, cfg, func(worker, f int) (adversary.FlowObs, error) {
		flow, err := e.Flow(f)
		if err != nil {
			return adversary.FlowObs{}, err
		}
		o := &obs[f]
		o.key = flow.Key
		if flow.Start > 0 {
			o.k0 = int(flow.Start/e.period) + 1
		}
		start := float64(o.k0) * e.period
		o.start = start
		o.end = start + float64(slots)*e.period
		// Pull the exit stream through the whole chain into the worker's
		// reusable slab, dropping the partial-slot head after a warm-up.
		buf := netem.Collect(exits[worker][:0], flow.Exit, start, o.end)
		exits[worker] = buf
		// The flow's observation is complete and this worker owns its
		// telemetry shard: publish the chain's counters (nil-safe).
		flow.Probe.Flush()
		o.exitCount = len(buf)
		o.stats = make([]float64, Channels*slots)
		slotStats(buf, start, e.period, slots,
			o.channel(0, slots), o.channel(1, slots), o.channel(2, slots))
		for ch := range o.ss {
			o.ss[ch] = adversary.Center(o.channel(ch, slots), o.channel(ch, slots))
		}
		if flow.Inject != nil {
			o.inject = flow.Inject()
		}
		hopStats[f] = cascade.ReadHops(flow.Hops)
		return adversary.FlowObs{Class: flow.Class, Exit: buf}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("active: %w", err)
	}

	score := scoreMatrix(obs, e.decoys, slots, set.Workers)
	sum, anon, err := set.Match(score)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Flows: flows, Hops: e.hops, Mode: e.mode.String(), Slots: slots, ZTrue: make([]float64, flows),
		MatchAccuracy: sum.Accuracy, MeanRank: sum.MeanRank, ClassAccuracy: sum.ClassAccuracy,
		DegreeOfAnonymity: anon,
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
	if err := reduceOverhead(res, obs, hopStats, e.hops); err != nil {
		return nil, fmt.Errorf("active: %w", err)
	}
	return res, nil
}

// scoreMatrix returns the key × exit z-score matrix, score[u*flows+f]
// for flow u's key at exit flow f, from observations whose channels are
// centered. Exit flows are grouped by first slot k0; a group's centered
// chip matrix (row u < flows is flow u's key, then the decoys) is built
// once and read by every worker, and its exit flows are scored in
// parallel, flow f writing only column f. Per exit flow, each channel's
// null is calibrated against the decoys, then every candidate key scores
// its best channel's z.
func scoreMatrix(obs []flowObs, decoys []*Key, slots, workers int) []float64 {
	flows := len(obs)
	keys := make([]*Key, 0, flows+len(decoys))
	for f := range obs {
		keys = append(keys, obs[f].key)
	}
	keys = append(keys, decoys...)
	chips := make([]float64, len(keys)*slots)
	chipSS := make([]float64, len(keys))
	chipRow := func(i int) []float64 { return chips[i*slots : (i+1)*slots] }
	decoyR := make([][]float64, workers) // per-worker decoy correlations
	for w := range decoyR {
		decoyR[w] = make([]float64, len(decoys))
	}
	score := make([]float64, flows*flows)
	for _, group := range groupByK0(obs) {
		k0 := obs[group[0]].k0
		for i, k := range keys {
			fillChips(chipRow(i), k, k0)
			chipSS[i] = adversary.Center(chipRow(i), chipRow(i))
		}
		_ = par.MapWorker(len(group), workers, func(worker, i int) error { // scoring cannot fail
			f := group[i]
			o := &obs[f]
			rs := decoyR[worker]
			var mu, sigma [Channels]float64
			for ch := range Channels {
				for d := range rs {
					rs[d] = adversary.CenteredCorr(chipRow(flows+d), o.channel(ch, slots), chipSS[flows+d], o.ss[ch])
				}
				mu[ch], sigma[ch] = stats.Mean(rs), stats.StdDev(rs)
			}
			for u := range flows {
				best := 0.0
				for ch := range Channels {
					if sigma[ch] < 1e-9 {
						continue // degenerate channel: no information
					}
					r := adversary.CenteredCorr(chipRow(u), o.channel(ch, slots), chipSS[u], o.ss[ch])
					if z := (r - mu[ch]) / sigma[ch]; z > best {
						best = z
					}
				}
				score[u*flows+f] = best
			}
			return nil
		})
	}
	return score
}

// groupByK0 groups flow indices by first whole slot, each group in
// ascending flow order and the groups in order of first appearance.
func groupByK0(obs []flowObs) [][]int {
	var groups [][]int
	at := make(map[int]int) // k0 → its group's index
	for f := range obs {
		g, ok := at[obs[f].k0]
		if !ok {
			g = len(groups)
			at[obs[f].k0] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], f)
	}
	return groups
}

// reduceOverhead accounts the injection cost and the defense's bandwidth
// in flow order. Hop and injection counters cover each flow's whole
// timeline [0, end] (warm-up included), so rates divide by the summed
// end times, not the observation duration.
func reduceOverhead(res *Result, obs []flowObs, hopStats [][]cascade.HopStats, hops int) error {
	var endSum, chaffSum, delaySum, payloadSum float64
	for f := range obs {
		endSum += obs[f].end
		chaffSum += float64(obs[f].inject.Chaff)
		delaySum += obs[f].inject.DelaySum
		payloadSum += float64(obs[f].inject.Payload)
	}
	if endSum > 0 {
		res.InjectedPPS = chaffSum / endSum
	}
	if payloadSum > 0 {
		res.MeanAddedDelay = delaySum / payloadSum
	}
	ov, err := cascade.ReduceHops(hopStats, hops, endSum)
	if err != nil {
		return err
	}
	res.HopPPS, res.HopDummyFrac, res.RoutePPS, res.DummyFrac = ov.HopPPS, ov.HopDummyFrac, ov.RoutePPS, ov.DummyFrac
	if hops == 0 {
		// Unpadded flows: the exit counts cover only the observed window
		// (start, end] — warm-up packets of a session scenario were
		// discarded — so the rate averages over the window, not the
		// whole timeline.
		var exitAll, obsSum float64
		for f := range obs {
			exitAll += float64(obs[f].exitCount)
			obsSum += obs[f].end - obs[f].start
		}
		if obsSum > 0 {
			res.RoutePPS = exitAll / obsSum
		}
	}
	return nil
}

// slotStats reduces an ascending timestamp slice to the three matched-
// filter channels over `slots` consecutive windows of width period
// starting at start. counts, vars and cents must each have length slots
// and are overwritten.
func slotStats(times []float64, start, period float64, slots int, counts, vars, cents []float64) {
	for i := 0; i < slots; i++ {
		counts[i], vars[i], cents[i] = 0, 0, 0
	}
	cur := -1
	var prev float64
	var m moments // PIAT moments of the current slot
	flush := func() {
		if cur >= 0 {
			vars[cur] = m.variance()
			if counts[cur] > 0 {
				cents[cur] /= counts[cur]
			}
		}
	}
	for _, t := range times {
		s := int((t - start) / period)
		if s < 0 || s >= slots {
			continue
		}
		if s != cur {
			flush()
			cur = s
			m = moments{}
		} else {
			m.add(t - prev)
		}
		prev = t
		counts[s]++
		cents[s] += (t-start)/period - float64(s) - 0.5
	}
	flush()
}

// moments is a minimal Welford accumulator for per-slot PIAT variance
// (kept local so the hot loop stays allocation-free and inlinable).
type moments struct {
	n    int
	mean float64
	m2   float64
}

func (m *moments) add(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

func (m *moments) variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// fillChips writes key's chip sequence for slots k0..k0+len(dst)-1.
func fillChips(dst []float64, key *Key, k0 int) {
	for j := range dst {
		dst[j] = key.Chip(k0 + j)
	}
}
