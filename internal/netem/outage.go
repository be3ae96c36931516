package netem

import (
	"errors"

	"linkpad/internal/obs"
	"linkpad/internal/traffic"
)

// Hop outages (outage.go): a cascade hop goes dark on a seeded
// traffic.OnOffSchedule and recovers. Packets that would depart during a
// dark interval are handled by one of three policies, all of which leak
// differently to a timing adversary:
//
//   - wait-for-recovery (Backoff = 0, SpareDelay = 0): the packet departs
//     at the instant the hop comes back up, so an outage prints a dead
//     interval followed by a flush burst;
//   - retry/backoff (Backoff > 0): the entry gateway retries at
//     exponentially growing offsets (t + b, t + 2b, t + 4b, ...) until an
//     attempt lands in an up interval. The first successful attempt
//     overshoots the recovery instant by up to one backoff step, so the
//     recovery burst is delayed and smeared — the retry policy itself is
//     a measurable leak;
//   - failover (SpareDelay > 0): the packet diverts to a spare route and
//     arrives SpareDelay later; the outage prints as a delay step rather
//     than a gap.
//
// FIFO holds throughout: a departure never precedes its predecessor, so
// packets queued behind an outage flush in order at recovery.

// OutageStream applies an availability schedule to a TimeStream.
type OutageStream struct {
	upstream   TimeStream
	sched      *traffic.OnOffSchedule
	backoff    float64
	spareDelay float64
	lastOut    float64
	started    bool
	affected   int
	diverted   int
	probe      *obs.Shard
}

// NewOutageStream wraps upstream with the schedule. backoff and
// spareDelay must not both be positive (a gateway either retries the
// primary route or diverts to the spare, not both). probe, when non-nil,
// is a telemetry shard; dark-interval hits and the extra delay they cost
// count into it.
func NewOutageStream(upstream TimeStream, sched *traffic.OnOffSchedule, backoff, spareDelay float64, probe *obs.Shard) (*OutageStream, error) {
	if upstream == nil {
		return nil, errors.New("netem: nil upstream")
	}
	if sched == nil {
		return nil, errors.New("netem: nil schedule")
	}
	if backoff < 0 || spareDelay < 0 {
		return nil, errors.New("netem: outage backoff and spare delay must be non-negative")
	}
	if backoff > 0 && spareDelay > 0 {
		return nil, errors.New("netem: outage backoff and spare failover are mutually exclusive")
	}
	return &OutageStream{upstream: upstream, sched: sched, backoff: backoff, spareDelay: spareDelay, probe: probe}, nil
}

// Next returns the departure time of the next packet under the outage
// policy.
func (o *OutageStream) Next() float64 {
	t := o.upstream.Next()
	out := t
	if !o.sched.UpAt(t) {
		o.affected++
		switch {
		case o.spareDelay > 0:
			o.diverted++
			out = t + o.spareDelay
		case o.backoff > 0:
			// Exponential backoff: attempt k happens at t + b·2^(k−1).
			step := o.backoff
			for out = t + step; !o.sched.UpAt(out); out = t + step {
				step += step
			}
		default:
			out = o.sched.NextUpAfter(t)
		}
		o.probe.Inc(obs.NetemOutageHit)
		// Integer nanoseconds: deterministic (a pure function of the
		// departure times) and exactly summable across chains.
		o.probe.Add(obs.NetemOutageNanos, uint64((out-t)*1e9))
	}
	if o.started && out < o.lastOut {
		out = o.lastOut
	}
	o.started = true
	o.lastOut = out
	return out
}

// GateStream drops packets that fall in the schedule's DOWN intervals:
// the egress of a churned user's padded link, which emits nothing while
// the user is offline (unlike an OutageStream, nothing is deferred — the
// packets never existed). The pull loop always terminates because UP
// intervals recur with positive mean.
type GateStream struct {
	upstream TimeStream
	sched    *traffic.OnOffSchedule
}

// NewGateStream wraps upstream with the schedule.
func NewGateStream(upstream TimeStream, sched *traffic.OnOffSchedule) (*GateStream, error) {
	if upstream == nil {
		return nil, errors.New("netem: nil upstream")
	}
	if sched == nil {
		return nil, errors.New("netem: nil schedule")
	}
	return &GateStream{upstream: upstream, sched: sched}, nil
}

// Next returns the next packet time that falls in an UP interval.
func (g *GateStream) Next() float64 {
	for {
		t := g.upstream.Next()
		if g.sched.UpAt(t) {
			return t
		}
	}
}
