package netem

import (
	"errors"

	"linkpad/internal/traffic"
)

// GateStream drops packets that fall in the schedule's DOWN intervals:
// the egress of a churned user's padded link, which emits nothing while
// the user is offline (nothing is deferred — the packets never existed).
// The pull loop always terminates because UP intervals recur with
// positive mean.
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
