// Package gateway models the sender security gateway GW1 (paper §3.2):
// a timer-driven link-padding engine that emits one constant-size packet
// per timer interrupt — a queued payload packet if one is waiting, a dummy
// otherwise — so that the padded stream's timing is nominally independent
// of the payload.
//
// The reproduction's key mechanism is the timer interrupt jitter δ_gw
// (paper §4.1.2): each fire is perturbed by operating-system noise
// N(0, σ_os²) plus a compound blocking delay — every payload packet that
// arrived at the NIC during the elapsed timer interval may have preempted
// the CPU and delays the timer interrupt by a small exponential amount.
// The blocking term's variance grows linearly with the payload rate, so
// Var(PIAT | ω_h) > Var(PIAT | ω_l) while the means stay equal: exactly
// the leak the paper's adversary exploits, emerging here from an explicit
// causal model rather than being injected as a fitted constant.
//
// Determinism contract: a Gateway draws every variate from the single
// *xrand.Rand it was built with, in arrival order — it is a pure
// function of (payload source, rng) — and carries its clock across
// calls, so continuous sessions and cold-start replicas share one
// implementation. One event body (nextSlab) emits any number of fires per
// call, so the draws are the same however a caller chunks its pulls;
// Next is its one-packet view. Allocation discipline:
// O(1) state beyond the payload queue and no per-packet buffering; a
// warmed gateway allocates nothing.
package gateway

import (
	"errors"
	"fmt"
	"math"

	"linkpad/internal/obs"
	"linkpad/internal/slab"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// TimerPolicy chooses the designed interval T between consecutive timer
// interrupts (paper §3.2 remark 2): constant for CIT, random for VIT.
type TimerPolicy interface {
	// NextInterval returns the next designed timer interval in seconds.
	NextInterval() float64
	// Mean returns E[T].
	Mean() float64
	// IntervalVar returns Var(T) = σ_T² (0 for CIT).
	IntervalVar() float64
	// MaxInterval returns an upper bound on emitted intervals, used for
	// QoS delay bounds. For unbounded distributions it is a practical
	// quantile (VIT uses mean + 8σ).
	MaxInterval() float64
}

// QueueObserver is implemented by timer policies that adapt to the
// payload queue (e.g. Adaptive); the gateway reports the queue length
// before drawing each interval.
type QueueObserver interface {
	ObserveQueue(qlen int)
}

// CIT is the constant interval timer policy: T = τ every fire.
type CIT struct {
	tau float64
}

// NewCIT creates a CIT policy with period tau > 0.
func NewCIT(tau float64) (*CIT, error) {
	if !(tau > 0) {
		return nil, errors.New("gateway: CIT period must be positive")
	}
	return &CIT{tau: tau}, nil
}

// NextInterval returns τ.
func (c *CIT) NextInterval() float64 { return c.tau }

// Mean returns τ.
func (c *CIT) Mean() float64 { return c.tau }

// IntervalVar returns 0.
func (c *CIT) IntervalVar() float64 { return 0 }

// MaxInterval returns τ.
func (c *CIT) MaxInterval() float64 { return c.tau }

// VIT is the variable interval timer policy: T ~ N(τ, σ_T²), truncated
// below at a small positive floor so intervals stay physical.
type VIT struct {
	tau    float64
	sigmaT float64
	floor  float64
	rng    *xrand.Rand
}

// NewVIT creates a VIT policy with mean tau > 0 and standard deviation
// sigmaT >= 0. Intervals are truncated below at tau/100.
func NewVIT(tau, sigmaT float64, rng *xrand.Rand) (*VIT, error) {
	if !(tau > 0) {
		return nil, errors.New("gateway: VIT mean interval must be positive")
	}
	if sigmaT < 0 {
		return nil, errors.New("gateway: VIT sigma must be non-negative")
	}
	if rng == nil {
		return nil, errors.New("gateway: VIT needs an rng")
	}
	return &VIT{tau: tau, sigmaT: sigmaT, floor: tau / 100, rng: rng}, nil
}

// NextInterval draws a truncated normal interval.
func (v *VIT) NextInterval() float64 {
	return v.rng.TruncNormal(v.tau, v.sigmaT, v.floor)
}

// Mean returns τ (truncation bias is negligible for σ_T << τ).
func (v *VIT) Mean() float64 { return v.tau }

// IntervalVar returns σ_T².
func (v *VIT) IntervalVar() float64 { return v.sigmaT * v.sigmaT }

// MaxInterval returns the practical upper bound τ + 8σ_T
// (P(T > τ+8σ) ≈ 6e-16 for the truncated normal).
func (v *VIT) MaxInterval() float64 { return v.tau + 8*v.sigmaT }

// JitterModel is the gateway host's timer-disturbance model: the source of
// δ_gw in the paper's PIAT decomposition (eq. 8).
type JitterModel struct {
	// SigmaOS is the standard deviation of the per-fire scheduling noise
	// (context switching into the timer ISR), in seconds.
	SigmaOS float64
	// BlockMean is the mean of the exponential delay each payload NIC
	// interrupt adds to the pending timer interrupt, in seconds.
	BlockMean float64
	// BlockCap bounds a single blocking delay (interrupt handlers have a
	// bounded critical section), in seconds.
	BlockCap float64
}

// DefaultJitter returns the calibration used throughout the study:
// σ_os = 3 µs, blocking Exp(4.4 µs) capped at 60 µs. With Poisson payload
// at 10/40 pps and τ = 10 ms this yields a PIAT variance ratio r ≈ 1.9,
// reproducing the scale of the paper's Fig. 4 lab measurements
// (PIAT spread of a few tens of µs around 10 ms, near-100 % detection at
// sample size 1000 for variance/entropy features).
func DefaultJitter() JitterModel {
	return JitterModel{SigmaOS: 3e-6, BlockMean: 4.4e-6, BlockCap: 60e-6}
}

// Validate checks the model parameters: each is finite and
// non-negative (a zero BlockCap means no cap).
func (j JitterModel) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"SigmaOS", j.SigmaOS}, {"BlockMean", j.BlockMean}, {"BlockCap", j.BlockCap}} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("gateway: jitter %s is %v; want finite and non-negative", f.name, f.v)
		}
	}
	if j.BlockMean > 0 && j.BlockCap > 0 && j.BlockCap < j.BlockMean {
		return errors.New("gateway: blocking cap below blocking mean")
	}
	return nil
}

// Delay draws the timer-interrupt displacement for one fire given the
// number of payload arrivals in the elapsed interval.
func (j JitterModel) Delay(arrivals int, rng *xrand.Rand) float64 {
	d := rng.Normal(0, j.SigmaOS)
	for i := 0; i < arrivals; i++ {
		b := rng.Exp(j.BlockMean)
		if j.BlockCap > 0 && b > j.BlockCap {
			b = j.BlockCap
		}
		d += b
	}
	return d
}

// blockSecondMoment returns E[min(X, cap)²] for X ~ Exp(BlockMean).
func (j JitterModel) blockSecondMoment() float64 {
	m := j.BlockMean
	if m == 0 {
		return 0
	}
	if j.BlockCap <= 0 {
		return 2 * m * m
	}
	c := j.BlockCap
	return 2*m*m - math.Exp(-c/m)*(2*m*m+2*m*c)
}

// DeltaVar returns the per-fire variance of δ_gw when Poisson payload at
// rate lambda (packets/second) feeds a timer with mean interval tau:
// σ_os² plus the compound-Poisson blocking variance λτ·E[d²].
func (j JitterModel) DeltaVar(lambda, tau float64) float64 {
	return j.SigmaOS*j.SigmaOS + lambda*tau*j.blockSecondMoment()
}

// PIATVar predicts the padded-traffic PIAT variance at the gateway output
// for the given policy and Poisson payload rate:
//
//	Var(X) = σ_T² + 2·Var(δ_gw)
//
// since X_k = T_k + δ_{k+1} − δ_k with independent per-interval blocking.
// This is the model-side σ² that enters the paper's ratio r (eq. 16).
func PIATVar(policy TimerPolicy, j JitterModel, lambda float64) float64 {
	return policy.IntervalVar() + 2*j.DeltaVar(lambda, policy.Mean())
}

// VarianceRatio predicts r = σ_h²/σ_l² (paper eq. 16) at the gateway
// output (σ_net = 0) for Poisson payload rates low < high.
func VarianceRatio(policy TimerPolicy, j JitterModel, low, high float64) float64 {
	return PIATVar(policy, j, high) / PIATVar(policy, j, low)
}

// Config assembles a gateway.
type Config struct {
	// Policy is the timer policy (required).
	Policy TimerPolicy
	// Jitter is the host disturbance model.
	Jitter JitterModel
	// Payload is the incoming payload arrival process (required).
	Payload traffic.Source
	// RNG drives the jitter draws (required).
	RNG *xrand.Rand
	// ArrivalTap, when non-nil, observes the absolute arrival time of
	// every payload packet reaching the gateway —
	// the ingress observation point of a global passive adversary who
	// watches both sides of the padded link. Purely an observer: it must
	// not mutate the gateway, and leaving it nil changes nothing.
	ArrivalTap func(t float64)
	// Probe, when non-nil, is the chain's telemetry shard; the gateway
	// counts emitted payload/dummy packets, blocking stalls and payload
	// arrivals into it. Nil (the default) disables counting
	// at the cost of one predicted branch per event.
	Probe *obs.Shard
}

// Stats counts gateway activity, including the QoS side of the paper's
// trade-off (NetCamo, ref. [9]): how long payload packets sit in the
// padding queue.
type Stats struct {
	// Fires is the number of timer interrupts, i.e. padded packets sent.
	Fires uint64
	// PayloadSent is the number of padded packets carrying payload.
	PayloadSent uint64
	// Dummies is the number of dummy packets sent.
	Dummies uint64
	// Arrivals is the number of payload packets that arrived.
	Arrivals uint64
	// MaxQueue is the payload queue's high-water mark.
	MaxQueue int
	// DelaySum accumulates the queueing delay of every sent payload
	// packet (departure − arrival), in seconds.
	DelaySum float64
	// DelayMax is the largest payload queueing delay observed.
	DelayMax float64
}

// MeanPayloadDelay returns the average queueing delay of sent payload
// packets (0 if none were sent).
func (s Stats) MeanPayloadDelay() float64 {
	if s.PayloadSent == 0 {
		return 0
	}
	return s.DelaySum / float64(s.PayloadSent)
}

// Gateway is a running sender gateway. It produces the padded packet
// departure process a slab at a time (NextSlab, NextBatch) or one packet
// at a time (Next); it is not safe for concurrent use.
type Gateway struct {
	cfg   Config
	stats Stats

	sched       float64   // last scheduled fire time
	lastDepart  float64   // last actual departure time
	nextArrival float64   // absolute time of next payload arrival
	queue       []float64 // arrival times of queued payload packets
	qhead       int       // index of the oldest queued packet
	started     bool
	qobs        QueueObserver // cfg.Policy, when it adapts to the queue
	cit         *CIT          // cfg.Policy, when it is the constant timer
	one         [1]float64    // Next's one-packet slab
}

// minSpacing keeps departures strictly increasing even when jitter draws
// would reorder adjacent fires (1 ns, far below every noise scale).
const minSpacing = 1e-9

// New creates a gateway from cfg.
func New(cfg Config) (*Gateway, error) {
	if cfg.Policy == nil {
		return nil, errors.New("gateway: nil timer policy")
	}
	if cfg.Payload == nil {
		return nil, errors.New("gateway: nil payload source")
	}
	if cfg.RNG == nil {
		return nil, errors.New("gateway: nil rng")
	}
	if err := cfg.Jitter.Validate(); err != nil {
		return nil, err
	}
	g := &Gateway{cfg: cfg}
	g.qobs, _ = cfg.Policy.(QueueObserver)
	g.cit, _ = cfg.Policy.(*CIT)
	return g, nil
}

// Next returns the next padded-packet departure time, implementing the
// timestamp-stream contract consumed by internal/netem: a one-packet
// NextBatch.
func (g *Gateway) Next() float64 {
	g.NextBatch(g.one[:])
	return g.one[0]
}

// NextBatch fills dst with the departure times of the next len(dst)
// padded packets.
func (g *Gateway) NextBatch(dst []float64) {
	g.nextSlab(dst, nil)
}

// NextSlab fills s with the next n padded packets: departure times plus
// the slab.FlagDummy bit on packets that carry no payload (ground truth
// the adversary never sees). The slab is reset and grown to n.
func (g *Gateway) NextSlab(s *slab.Slab, n int) {
	s.Grow(n)
	g.nextSlab(s.Times, s.Flags)
}

// nextSlab is the gateway's one event body: it advances the gateway by
// len(dst) timer fires, writing each departure time to dst and, when
// flags is non-nil, its dummy flag. Per fire it reports the queue to an
// adaptive policy, draws the designed interval, admits every payload
// arrival up to the scheduled instant, draws the jitter, and sends the
// oldest queued payload packet or a dummy. The policy's concrete type is
// resolved once in New, so the dominant CIT policy's constant interval is
// read directly instead of through a method call per fire.
func (g *Gateway) nextSlab(dst []float64, flags []uint8) {
	if len(dst) == 0 {
		return
	}
	if !g.started {
		g.started = true
		g.nextArrival = g.cfg.Payload.Next()
	}
	for i := range dst {
		if g.qobs != nil {
			g.qobs.ObserveQueue(g.QueueLen())
		}
		if g.cit != nil {
			g.sched += g.cit.tau
		} else {
			g.sched += g.cfg.Policy.NextInterval()
		}

		// Admit every payload arrival up to the scheduled fire instant;
		// each one is a NIC interrupt that may block the timer ISR.
		arrivals := 0
		for g.nextArrival <= g.sched {
			arrivals++
			g.stats.Arrivals++
			if g.cfg.ArrivalTap != nil {
				g.cfg.ArrivalTap(g.nextArrival)
			}
			g.queue = append(g.queue, g.nextArrival)
			if q := g.QueueLen(); q > g.stats.MaxQueue {
				g.stats.MaxQueue = q
			}
			g.nextArrival += g.cfg.Payload.Next()
		}
		if arrivals > 0 {
			g.cfg.Probe.Add(obs.TrafficPayload, uint64(arrivals))
			// At least one NIC interrupt blocked this timer interval:
			// the compound jitter term engaged for this fire.
			g.cfg.Probe.Inc(obs.GatewayStall)
		}

		fire := g.sched + g.cfg.Jitter.Delay(arrivals, g.cfg.RNG)
		if fire <= g.lastDepart {
			fire = g.lastDepart + minSpacing
		}
		g.lastDepart = fire
		g.stats.Fires++
		dst[i] = fire

		flag := uint8(slab.FlagDummy)
		if g.QueueLen() > 0 {
			arrived := g.queue[g.qhead]
			g.qhead++
			// Reclaim the consumed prefix once it dominates the buffer.
			if g.qhead > 1024 && g.qhead*2 > len(g.queue) {
				g.queue = append(g.queue[:0], g.queue[g.qhead:]...)
				g.qhead = 0
			}
			delay := fire - arrived
			g.stats.DelaySum += delay
			if delay > g.stats.DelayMax {
				g.stats.DelayMax = delay
			}
			g.stats.PayloadSent++
			g.cfg.Probe.Inc(obs.GatewayPayload)
			flag = 0
		} else {
			g.stats.Dummies++
			g.cfg.Probe.Inc(obs.GatewayDummy)
		}
		if flags != nil {
			flags[i] = flag
		}
	}
}

// Stats returns a copy of the activity counters.
func (g *Gateway) Stats() Stats { return g.stats }

// QueueLen returns the current payload queue length.
func (g *Gateway) QueueLen() int { return len(g.queue) - g.qhead }
