package gateway

import "errors"

// Adaptive implements the adaptive traffic-masking policy of Timmerman
// (NSPW 1997), discussed in the paper's related work (§2): to save
// bandwidth, the gateway stretches its timer interval after the payload
// queue has been empty for a while, and snaps back to the fast interval
// as soon as payload queues up.
//
// The paper's point about this family of schemes is that they violate
// perfect secrecy by construction: the padded rate now tracks the payload
// rate, so large-scale rate variations become observable — even the
// sample-mean feature defeats it. Adaptive exists here as the negative
// baseline demonstrating that claim (see the baseline-policies
// experiment).
type Adaptive struct {
	tauBusy   float64
	tauIdle   float64
	idleAfter int
	emptyRun  int
}

// NewAdaptive creates an adaptive policy: intervals are tauBusy while
// payload is flowing and tauIdle (> tauBusy) after idleAfter consecutive
// fires with an empty payload queue.
func NewAdaptive(tauBusy, tauIdle float64, idleAfter int) (*Adaptive, error) {
	if !(tauBusy > 0) {
		return nil, errors.New("gateway: adaptive busy interval must be positive")
	}
	if tauIdle <= tauBusy {
		return nil, errors.New("gateway: adaptive idle interval must exceed the busy interval")
	}
	if idleAfter < 1 {
		return nil, errors.New("gateway: idleAfter must be at least 1")
	}
	return &Adaptive{tauBusy: tauBusy, tauIdle: tauIdle, idleAfter: idleAfter}, nil
}

// ObserveQueue records the payload queue length before each fire.
func (a *Adaptive) ObserveQueue(qlen int) {
	if qlen == 0 {
		a.emptyRun++
	} else {
		a.emptyRun = 0
	}
}

// NextInterval returns the busy interval while payload flows, the idle
// interval once the queue has stayed empty.
func (a *Adaptive) NextInterval() float64 {
	if a.emptyRun >= a.idleAfter {
		return a.tauIdle
	}
	return a.tauBusy
}

// Mean returns the busy interval: the nominal design rate. The realized
// mean depends on the payload process — that dependence is exactly the
// leak.
func (a *Adaptive) Mean() float64 { return a.tauBusy }

// IntervalVar returns 0: the interval is deterministic given the state.
func (a *Adaptive) IntervalVar() float64 { return 0 }

// MaxInterval returns the idle interval.
func (a *Adaptive) MaxInterval() float64 { return a.tauIdle }

var _ TimerPolicy = (*Adaptive)(nil)
var _ QueueObserver = (*Adaptive)(nil)
