// Package netem models the unprotected network between the sender and
// receiver gateways: store-and-forward routers whose queues are shared
// with crossover traffic (the source of δ_net in the paper's PIAT
// decomposition, eq. 8), multi-hop paths, and adversary tap imperfections.
//
// Two router implementations are provided:
//
//   - Router: an exact FIFO single-server queue fed by the padded stream
//     plus a crossover arrival process, advanced with the Lindley
//     recursion. This is the ground truth.
//   - FastRouter: per-packet waiting times sampled i.i.d. from the exact
//     stationary M/D/1 waiting-time distribution via the
//     Pollaczek-Khinchine geometric ladder representation. Valid because
//     padded packets are spaced ~10 ms apart, far longer than a busy
//     period at the utilizations studied, so consecutive padded packets
//     see essentially independent queue states. Used for the large
//     parameter sweeps; equivalence with Router is enforced by tests.
//
// Determinism contract: every element draws from the explicit
// *xrand.Rand it was built with, in packet order, so a path is a pure
// function of (upstream stream, rngs). Differ adapts an absolute-time
// stream to the PIATs the adversary consumes while carrying the session
// clock (Now) and warm-up discard (Skip) across windows. Allocation
// discipline: all elements are streaming with O(1) state — no packet
// buffers, nothing allocated per packet.
//
// Batched event core: every element's per-packet logic lives in one
// place, its NextBatch(dst), which fills a slab of packet times per call.
// Next is the one-packet view of it, over a one-element cell the element
// owns (a stack array would escape through the upstream interface call).
// One-to-one elements (FastRouter, Router, Quantizer, Differ) transform
// the slab in place on top of their upstream's batch, so a whole chain
// batches through a single []float64 with one interface call per slab
// per layer. The variable-rate element, Impairer (also the lossy tap:
// an Impairment with LossProb alone), consumes a data-dependent number
// of upstream packets per output; it requests upstream chunks sized to
// the outputs still owed, which keeps every layer's draw order
// independent of the chunking. An Impairer whose
// duplication produced more outputs than requested keeps the surplus
// queued for the next call, so its upstream may run ahead by less than
// one chunk; that lookahead is invisible in the output.
package netem

import (
	"errors"
	"math"

	"linkpad/internal/obs"
	"linkpad/internal/slab"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// TimeStream is a monotone sequence of absolute event times in seconds.
// The gateway's padded departure process and every network element's
// output implement it.
type TimeStream interface {
	Next() float64
}

// Collect is the exit collector of every matching attack: it pulls s
// until the first time past to, appends the times in (from, to] to dst
// and returns it. Exactly one departure past to is pulled, and dropped;
// counters read off the stream afterwards include it.
func Collect(dst []float64, s TimeStream, from, to float64) []float64 {
	for {
		t := s.Next()
		if t > to {
			return dst
		}
		if t > from {
			dst = append(dst, t)
		}
	}
}

// BatchStream is a TimeStream that can produce a batch of event times in
// one call. NextBatch fills dst entirely; it is equivalent to len(dst)
// Next calls.
type BatchStream interface {
	TimeStream
	NextBatch(dst []float64)
}

// feed is an element's upstream with its batching face resolved once at
// construction, so a one-packet pull pays no type assertion per call.
type feed struct {
	TimeStream
	batch BatchStream // nil when the stream does not batch
}

func newFeed(s TimeStream) feed {
	b, _ := s.(BatchStream)
	return feed{s, b}
}

// fill fills dst from the stream, through NextBatch when it batches and
// one Next call per element otherwise; either way the stream advances by
// exactly len(dst) events.
func (f feed) fill(dst []float64) {
	if f.batch != nil {
		f.batch.NextBatch(dst)
		return
	}
	for i := range dst {
		dst[i] = f.Next()
	}
}

// ServiceTime returns the transmission time of a packet of size
// packetBytes on a link of capacityBps bits per second.
func ServiceTime(capacityBps float64, packetBytes int) float64 {
	return float64(packetBytes*8) / capacityBps
}

// MD1WaitVar returns the stationary M/D/1 waiting-time variance at
// utilization rho and service s, from the ladder representation:
// (ρ/(1−ρ))·s²/12 + (ρ/(1−ρ)²)·s²/4.
func MD1WaitVar(rho, s float64) float64 {
	q := 1 - rho
	return rho/q*s*s/12 + rho/(q*q)*s*s/4
}

// Util gives the crossover-traffic utilization of a router's outgoing
// link at absolute time t (seconds since the run began). It is an
// interface rather than a func type so the router loop can
// recognize the two concrete profiles the simulator uses — constant and
// diurnal — and devirtualize the per-packet utilization lookup; any
// other implementation (including a plain UtilFunc closure) works
// through the generic path.
type Util interface {
	At(t float64) float64
}

// UtilFunc adapts an arbitrary function to the Util interface.
type UtilFunc func(t float64) float64

// At returns f(t).
func (f UtilFunc) At(t float64) float64 { return f(t) }

// constUtil is the flat profile, recognized by the router loop.
type constUtil float64

// At returns the constant utilization.
func (c constUtil) At(float64) float64 { return float64(c) }

// diurnalUtil anchors a traffic.Diurnal profile to a run's start hour,
// recognized by the router loop.
type diurnalUtil struct {
	d         traffic.Diurnal
	startHour float64
}

// At returns the profile's utilization at absolute run time t.
func (u diurnalUtil) At(t float64) float64 { return u.d.At(u.startHour + t/3600) }

// DiurnalUtil adapts a traffic.Diurnal profile: simulation time zero is
// startHour o'clock. A flat profile (Peak == Trough) collapses to the
// constant Util: Diurnal.At returns exactly Trough for it at every hour,
// so the substitution is bit-identical and lets the router loop
// take its draw-cheap constant path.
func DiurnalUtil(d traffic.Diurnal, startHour float64) Util {
	if d.Peak == d.Trough {
		return constUtil(d.Trough)
	}
	return diurnalUtil{d: d, startHour: startHour}
}

// maxRho caps utilization for the stationary sampler; above it the
// M/D/1 queue is so close to saturation that stationary sampling is
// meaningless for a 10 ms-spaced probe stream.
const maxRho = 0.95

// FastRouter transforms an upstream padded stream by adding an i.i.d.
// stationary M/D/1 waiting time, the deterministic service time, and a
// constant propagation delay, while preserving FIFO order.
type FastRouter struct {
	upstream feed
	service  float64
	util     Util
	// constant marks a constant profile with a non-NaN utilization;
	// rho and logRho are its clamped utilization and logarithm, computed
	// once so a short batch pays no extra transcendental.
	constant    bool
	rho, logRho float64
	prop        float64
	rng         *xrand.Rand
	lastOut     float64 // -Inf before the first packet
	one         [1]float64
}

// NewFastRouter creates a sampled router. service must be positive, util
// non-nil, prop non-negative.
func NewFastRouter(upstream TimeStream, service float64, util Util, prop float64, rng *xrand.Rand) (*FastRouter, error) {
	if upstream == nil {
		return nil, errors.New("netem: nil upstream")
	}
	if !(service > 0) {
		return nil, errors.New("netem: service time must be positive")
	}
	if util == nil {
		return nil, errors.New("netem: nil utilization function")
	}
	if prop < 0 {
		return nil, errors.New("netem: negative propagation delay")
	}
	if rng == nil {
		return nil, errors.New("netem: nil rng")
	}
	r := &FastRouter{upstream: newFeed(upstream), service: service, util: util, prop: prop, rng: rng, lastOut: math.Inf(-1)}
	// A NaN constant keeps the generic path, whose ladder draws a uniform
	// for it; the bounded loop below would draw none.
	if c, ok := util.(constUtil); ok && !math.IsNaN(float64(c)) {
		r.constant = true
		r.rho = min(max(float64(c), 0), maxRho)
		r.logRho = math.Log(r.rho)
	}
	return r, nil
}

// sampleMD1Wait draws from the stationary M/D/1 waiting-time distribution
// via the Pollaczek-Khinchine representation: a Geometric(ρ) number of
// i.i.d. Uniform(0, s) ladder heights.
func sampleMD1Wait(rho, s float64, rng *xrand.Rand) float64 {
	if rho <= 0 {
		return 0
	}
	if rho > maxRho {
		rho = maxRho
	}
	k := rng.Geometric(rho)
	var w float64
	for i := 0; i < k; i++ {
		w += s * rng.Float64()
	}
	return w
}

// Slab bounds on a diurnal ρ. minBoundLen is the shortest slab worth
// one cosine for its bound; shorter ones (one-packet pulls) take the
// exact path per packet. boundHours caps the magnitude of every hour in
// the phase computation so its rounding stays far below boundMargin,
// the absolute slack (per unit of profile amplitude) that covers the
// rounding of the phase and of cos between the midpoint and any packet.
// kOneSlack is the relative slack inside the K = 1 band of the ladder,
// hi²(1+kOneSlack) < x <= lo(1−kOneSlack): it keeps log x / log ρ at
// least kOneSlack/745 ≈ 1e-12 inside (1, 2) for every ρ in [lo, hi] ⊂
// (0, maxRho], a thousand times math.Log's error.
const (
	minBoundLen = 8
	boundHours  = 1e6
	boundMargin = 1e-9
	kOneSlack   = 1e-9
)

// bounds returns lo <= hi such that lo <= min(u.At(t), maxRho) <= hi for
// every t in a non-empty ts, as computed, or lo = hi = 0 (no bound) for
// out-of-range times. ρ moves at most |Peak−Trough|·π/86400 per
// second, so one evaluation at the midpoint of [min t, max t] bounds the
// whole slab.
func (u diurnalUtil) bounds(ts []float64) (lo, hi float64) {
	// Plain comparisons, not the min and max builtins: those propagate
	// NaN, which costs a dependent chain of instructions per time. A NaN
	// is flagged on its own instead; signed zeros may land either way,
	// which no result below can tell apart.
	tmin, tmax := ts[0], ts[0]
	nan := false
	for _, t := range ts[1:] {
		if t < tmin {
			tmin = t
		}
		if t > tmax {
			tmax = t
		}
		if t != t {
			nan = true
		}
	}
	// A NaN time, a NaN first time (which no comparison moves) or an
	// infinite one fails the comparison, so non-finite times get no
	// bound; a non-finite profile leaves lo NaN or -Inf below.
	if nan || !(max(math.Abs(u.startHour), math.Abs(u.d.TroughHour), math.Abs(tmin)/3600, math.Abs(tmax)/3600) <= boundHours) {
		return 0, 0
	}
	amp := math.Abs(u.d.Peak - u.d.Trough)
	mid := u.At(tmin + (tmax-tmin)/2)
	half := amp*math.Pi/86400*(tmax-tmin)/2 + boundMargin*(1+math.Abs(u.d.Trough)+amp)
	return min(mid-half, maxRho), min(mid+half, maxRho)
}

// rhoAt returns the clamped utilization of a constant or diurnal profile
// at t; du is the profile when it is diurnal.
func (r *FastRouter) rhoAt(du diurnalUtil, t float64) float64 {
	if r.constant {
		return r.rho
	}
	return min(du.At(t), maxRho)
}

// ladder returns the M/D/1 wait for a ladder uniform x <= ρ: K =
// floor(log x / log ρ) uniform heights, drawn as sampleMD1Wait draws
// them.
func (r *FastRouter) ladder(x, rho float64) float64 {
	logRho := r.logRho
	if !r.constant {
		logRho = math.Log(rho)
	}
	var w float64
	for k := math.Floor(math.Log(x) / logRho); k > 0; k-- {
		w += r.service * r.rng.Float64()
	}
	return w
}

// Next returns the departure time of the next padded packet from this
// router: a one-packet NextBatch.
func (r *FastRouter) Next() float64 {
	r.NextBatch(r.one[:])
	return r.one[0]
}

// NextBatch fills dst with the departure times of the next len(dst)
// padded packets. Each packet waits an independent stationary M/D/1
// sample at the utilization its arrival time sees. Outputs never
// reorder: a packet leaves no earlier than one service time after its
// predecessor.
//
// The constant and diurnal profiles share one loop that bounds ρ over
// the slab, lo <= ρ <= hi (exact for a constant profile). With lo > 0
// the ladder uniform x is drawn first and settles most packets without
// ρ: x > hi means K = 0, and x in the K = 1 band (see kOneSlack) means
// one ladder step. Any other packet computes ρ and the ladder count
// floor(log x / log ρ) exactly as sampleMD1Wait does. Any other Util
// goes through sampleMD1Wait per packet. The draws and their order are
// sampleMD1Wait's throughout, so every path is bit-identical to the
// generic one (enforced by the equivalence tests, which wrap each
// profile in a UtilFunc).
func (r *FastRouter) NextBatch(dst []float64) {
	r.upstream.fill(dst)
	rng, s, prop := r.rng, r.service, r.prop
	du, diurnal := r.util.(diurnalUtil)
	if !diurnal && !r.constant {
		for i, t := range dst {
			dst[i] = t + sampleMD1Wait(max(r.util.At(t), 0), s, rng) + s + prop
		}
	} else {
		lo, hi := r.rho, r.rho
		if diurnal {
			lo, hi = 0, 0
			if len(dst) >= minBoundLen {
				lo, hi = du.bounds(dst)
			}
		}
		oneLo, oneHi := hi*hi*(1+kOneSlack), lo*(1-kOneSlack)
		for i, t := range dst {
			var w float64
			if lo > 0 {
				// ρ > 0 is known, so the uniform comes first.
				switch x := rng.Float64Open(); {
				case x > hi: // K = 0
				case oneLo < x && x <= oneHi: // K = 1
					w = s * rng.Float64()
				default:
					if rho := r.rhoAt(du, t); x <= rho {
						w = r.ladder(x, rho)
					}
				}
			} else if rho := r.rhoAt(du, t); rho > 0 {
				if x := rng.Float64Open(); x <= rho {
					w = r.ladder(x, rho)
				}
			}
			dst[i] = t + w + s + prop
		}
	}
	lastOut := r.lastOut
	for i, out := range dst {
		if out < lastOut+s {
			out = lastOut + s
			dst[i] = out
		}
		lastOut = out
	}
	r.lastOut = lastOut
}

// Router is the exact FIFO single-server queue: the padded stream and a
// crossover arrival process share one output link; every packet takes one
// deterministic service time. Departures follow the Lindley recursion.
type Router struct {
	upstream  feed
	cross     traffic.Model
	service   float64
	prop      float64
	free      float64 // time the server becomes free
	nextCross float64 // absolute time of the next cross arrival
	// crossBuf[crossIdx:] holds cross-arrival gaps pre-drawn a slab at a
	// time through the cross Model's NextBatch, consumed in draw order,
	// so the output is bit-identical to drawing one gap per cross packet;
	// only the cross stream's read-ahead differs, which nothing observes
	// (routers are not checkpointable).
	crossBuf []float64
	crossIdx int
	one      [1]float64
}

// NewRouter creates an exact router whose cross traffic is the started
// Model cross, drawing its first arrival. The zero Model is a dedicated
// link: it never fires and draws nothing.
func NewRouter(upstream TimeStream, cross traffic.Model, service, prop float64) (*Router, error) {
	if upstream == nil {
		return nil, errors.New("netem: nil upstream")
	}
	if !(service > 0) {
		return nil, errors.New("netem: service time must be positive")
	}
	if prop < 0 {
		return nil, errors.New("netem: negative propagation delay")
	}
	r := &Router{upstream: newFeed(upstream), cross: cross, service: service, prop: prop}
	r.nextCross = r.cross.Next()
	return r, nil
}

// Next returns the departure time of the next padded packet: a
// one-packet NextBatch.
func (r *Router) Next() float64 {
	r.NextBatch(r.one[:])
	return r.one[0]
}

// NextBatch fills dst with exact-queue departures, advancing the Lindley
// recursion over the batched upstream slab and serving every crossover
// packet that arrived strictly before each padded packet in FIFO order.
// The exact queue serves many cross packets per padded packet, so the
// cross gaps are the hottest draw in the simulator; they are drained
// through crossBuf a slab at a time.
func (r *Router) NextBatch(dst []float64) {
	if len(dst) == 0 {
		return
	}
	r.upstream.fill(dst)
	service, prop := r.service, r.prop
	free, nextCross := r.free, r.nextCross
	buf, idx := r.crossBuf, r.crossIdx
	for i, t := range dst {
		for nextCross < t {
			if nextCross > free {
				free = nextCross
			}
			free += service
			if idx == len(buf) {
				if buf == nil {
					buf = make([]float64, slab.DefaultLen)
				}
				r.cross.NextBatch(buf)
				idx = 0
			}
			nextCross += buf[idx]
			idx++
		}
		if t > free {
			free = t
		}
		free += service
		dst[i] = free + prop
	}
	r.free, r.nextCross = free, nextCross
	r.crossBuf, r.crossIdx = buf, idx
}

// Hop describes one router on a path.
type Hop struct {
	// Service is the per-packet transmission time on the outgoing link.
	Service float64
	// Util is the crossover utilization profile of the outgoing link.
	Util Util
	// Prop is the constant propagation delay to the next hop.
	Prop float64
}

// NewPath chains FastRouters over the given hops, splitting independent
// RNG streams off rng for each hop. An empty hop list returns upstream
// unchanged.
func NewPath(upstream TimeStream, hops []Hop, rng *xrand.Rand) (TimeStream, error) {
	if upstream == nil {
		return nil, errors.New("netem: nil upstream")
	}
	s := upstream
	for _, h := range hops {
		if rng == nil {
			return nil, errors.New("netem: nil rng with non-empty path")
		}
		fr, err := NewFastRouter(s, h.Service, h.Util, h.Prop, rng.Split())
		if err != nil {
			return nil, errors.Join(errors.New("netem: bad hop"), err)
		}
		s = fr
	}
	return s, nil
}

// Differ converts a TimeStream into its inter-arrival (PIAT) sequence.
// A Differ is the session-facing face of the network path: it carries the
// absolute stream clock across consecutive observation windows, so one
// Differ consumed incrementally yields the continuous padded timeline the
// paper's adversary taps (as opposed to rebuilding the chain per window).
type Differ struct {
	src     feed
	prev    float64
	started bool
	probe   *obs.Shard
	one     [1]float64
}

// NewDiffer wraps src. probe, when non-nil, is the observation chain's
// telemetry shard, making the Differ the chain's flush point: the Differ
// is the single element every chain ends in, so batched consumers can
// drain the whole chain's counters through it (FlushObs) at slab
// boundaries.
func NewDiffer(src TimeStream, probe *obs.Shard) *Differ {
	return &Differ{src: newFeed(src), probe: probe}
}

// FlushObs drains the chain's telemetry shard into the global
// collector; a no-op when no probe is attached. Implements obs.Flusher.
func (d *Differ) FlushObs() { d.probe.Flush() }

// Next returns the next inter-arrival time: a one-PIAT NextBatch.
func (d *Differ) Next() float64 {
	d.NextBatch(d.one[:])
	return d.one[0]
}

// NextBatch fills dst with the next len(dst) inter-arrival times,
// differencing the upstream batch in place.
func (d *Differ) NextBatch(dst []float64) {
	if len(dst) == 0 {
		return
	}
	if !d.started {
		d.started = true
		d.prev = d.src.Next()
	}
	d.src.fill(dst)
	prev := d.prev
	for i, t := range dst {
		dst[i] = t - prev
		prev = t
	}
	d.prev = prev
}

// Now returns the absolute stream time of the most recently observed
// packet (0 before the first Next call). Sessions use it to convert
// windows-to-decision into stream seconds.
func (d *Differ) Now() float64 { return d.prev }

// Skip consumes and discards n PIATs: the session warm-up, which runs the
// whole upstream chain (payload arrivals, gateway queue and timer,
// network queues) past its transient while the adversary is not yet
// watching. The stream clock still advances.
func (d *Differ) Skip(n int) {
	if n <= 0 {
		return
	}
	buf := make([]float64, min(n, slab.DefaultLen))
	for n > 0 {
		k := min(len(buf), n)
		d.NextBatch(buf[:k])
		n -= k
	}
}

// Quantizer models the capture hardware's finite timestamp resolution
// (e.g. a network analyzer clock): times are floored to multiples of the
// resolution. Output is non-decreasing but may repeat.
type Quantizer struct {
	upstream feed
	res      float64
	one      [1]float64
}

// NewQuantizer creates a quantizing tap with resolution res > 0.
func NewQuantizer(upstream TimeStream, res float64) (*Quantizer, error) {
	if upstream == nil {
		return nil, errors.New("netem: nil upstream")
	}
	if !(res > 0) {
		return nil, errors.New("netem: resolution must be positive")
	}
	return &Quantizer{upstream: newFeed(upstream), res: res}, nil
}

// Next returns the quantized next packet time: a one-packet NextBatch.
func (q *Quantizer) Next() float64 {
	q.NextBatch(q.one[:])
	return q.one[0]
}

// NextBatch fills dst with quantized packet times.
func (q *Quantizer) NextBatch(dst []float64) {
	q.upstream.fill(dst)
	res := q.res
	for i, t := range dst {
		dst[i] = math.Floor(t/res) * res
	}
}

// SliceStream replays a fixed schedule of times; it is the test harness's
// way to feed known departure processes through network elements. Next
// panics past the end of the slice.
type SliceStream struct {
	times []float64
	i     int
}

// NewSliceStream wraps times (not copied).
func NewSliceStream(times []float64) *SliceStream { return &SliceStream{times: times} }

// Next returns the next scheduled time.
func (s *SliceStream) Next() float64 {
	t := s.times[s.i]
	s.i++
	return t
}

var (
	_ BatchStream = (*FastRouter)(nil)
	_ BatchStream = (*Router)(nil)
	_ BatchStream = (*Quantizer)(nil)
	_ BatchStream = (*Differ)(nil)
	_ BatchStream = (*Impairer)(nil)
)
