package population

import (
	"errors"
	"fmt"
	"math"

	"linkpad/internal/xrand"
)

// Mix policies (mix.go): the batching discipline that cuts the merged
// population event stream into observable rounds. The original engine
// hard-wired the threshold mix — flush as soon as B messages queue — as
// the one-line batch loop inside NextRound; the SDA literature's
// extended attacks (Emamdoost et al.) are defined against two more
// disciplines, so the round policy generalizes into an interface:
//
//   - threshold: flush when the B-th message arrives (the default; the
//     engine's NextRound remains this policy's fast path);
//   - pool: the B-th new arrival triggers a flush, but every queued
//     message — carried pool and new arrivals alike — independently
//     stays behind with probability poolRetain, so a message's exit
//     round is randomized (a Cottrell-style pool mix with a fixed
//     retention probability);
//   - timed: flush on a fixed grid of stream time regardless of fill,
//     so round sizes float with the arrival rate.
//
// Streaming contract: a policy pulls events one at a time from the
// engine's time-sorted slab (nextEvent) and never looks ahead more
// than one event, so million-user populations stream through any policy
// exactly as they do through the threshold path — the engine's slab
// generation, lazy materialization and refill cadence are untouched.
// The one-event lookahead the timed mix needs, the pool's carried
// messages, and the pool's retention stream are the policy's only
// state.
//
// Determinism: the pool's retention draws come from a private
// deterministic stream (MixSpec.Seed), consumed in the sequential
// round-assembly path — never in the parallel slab fan-out — so every
// policy is worker-count-invariant by construction.

// MixKind selects the mix's batching discipline.
type MixKind int

const (
	// MixThreshold flushes as soon as Batch messages have queued — the
	// default, and the engine's original hard-wired policy.
	MixThreshold MixKind = iota
	// MixPool triggers a flush on every Batch-th new arrival but retains
	// each queued message with probability poolRetain, carrying it into
	// the next round's pool.
	MixPool
	// MixTimed flushes at a fixed period of stream time, whatever has
	// queued; empty windows produce no observable round.
	MixTimed
)

// String names the kind for tables and errors.
func (k MixKind) String() string {
	switch k {
	case MixThreshold:
		return "threshold"
	case MixPool:
		return "pool"
	case MixTimed:
		return "timed"
	default:
		return fmt.Sprintf("MixKind(%d)", int(k))
	}
}

// poolRetain is the pool mix's per-message retention probability: at
// every flush each queued message independently stays in the pool with
// this probability.
const poolRetain = 0.5

// defaultMixSeed seeds the pool retention stream when MixSpec.Seed is
// zero; the core scenario layer derives a per-system seed instead.
const defaultMixSeed = 0x6d69782d706f6f6c // "mix-pool"

// MixSpec configures the round policy of a disclosure run.
// The zero value is the threshold mix — the engine's original behavior.
type MixSpec struct {
	// Kind selects the batching discipline.
	Kind MixKind
	// Seed seeds the pool mix's private retention stream; 0 selects a
	// fixed default. The core scenario layer fills it from the system's
	// master seed so retention draws vary with the seed like every other
	// stream. Threshold and timed mixes reject a non-zero Seed.
	Seed uint64
}

// withDefaults fills zero fields that have kind-specific defaults.
func (m MixSpec) withDefaults() MixSpec {
	if m.Kind == MixPool && m.Seed == 0 {
		m.Seed = defaultMixSeed
	}
	return m
}

// validate checks the spec's shape. Called on the defaults-applied spec.
func (m MixSpec) validate() error {
	switch m.Kind {
	case MixThreshold, MixTimed:
		if m.Seed != 0 {
			return fmt.Errorf("population: %s mix takes no seed", m.Kind)
		}
	case MixPool:
	default:
		return fmt.Errorf("population: unknown mix kind %d", int(m.Kind))
	}
	return nil
}

// MixPolicy cuts the engine's merged event stream into observable mix
// rounds. NewMix builds one of the three implementations (threshold,
// pool, timed), selected by MixSpec.Kind.
type MixPolicy interface {
	// NextRound cuts the next observable round into r. Rounds that
	// would emit nothing (a fully retained pool, an empty timed window)
	// are skipped — the adversary observes batches leaving the mix, and
	// an empty flush leaves nothing to observe.
	NextRound(r *Round) error
}

// NewMix binds a mix policy to the engine. batch is the flush threshold
// (threshold mix) or the new-arrival trigger (pool mix); the timed mix
// uses it only to derive its period: batch divided by the population's
// aggregate send rate, the period at which a timed round carries as many
// messages as a threshold round, which is what makes the two disciplines
// comparable at equal batch. The policy consumes the engine's event
// stream; use one policy per engine.
func (e *Engine) NewMix(spec MixSpec, batch int) (MixPolicy, error) {
	if batch < 1 {
		return nil, errors.New("population: round batch must be at least 1")
	}
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	switch spec.Kind {
	case MixThreshold:
		return &thresholdMix{eng: e, batch: batch}, nil
	case MixPool:
		return &poolMix{eng: e, batch: batch, rng: xrand.New(spec.Seed)}, nil
	default: // MixTimed; validate rejected everything else
		// slabLen = targetSlabEvents/aggregateRate, so this is
		// batch/aggregateRate: the mean time to gather a batch.
		period := float64(batch) * e.slabLen / targetSlabEvents
		return &timedMix{eng: e, period: period}, nil
	}
}

// thresholdMix is the original policy: the engine's own NextRound.
type thresholdMix struct {
	eng   *Engine
	batch int
}

func (m *thresholdMix) NextRound(r *Round) error {
	return m.eng.NextRound(m.batch, r)
}

// poolMix carries a message pool across rounds: every Batch new arrivals
// trigger a flush, and each queued message independently stays behind
// with probability poolRetain. The pool preserves arrival order, so emitted
// rounds stay time-ordered within themselves even when they interleave
// old and new messages.
type poolMix struct {
	eng   *Engine
	batch int
	pool  []event
	rng   *xrand.Rand
}

func (m *poolMix) NextRound(r *Round) error {
	e := m.eng
	r.reset()
	for {
		// Gather the next batch of new arrivals into the pool.
		for got := 0; got < m.batch; got++ {
			ev, err := e.nextEvent()
			if err != nil {
				return err
			}
			m.pool = append(m.pool, ev)
			r.Flush = ev.t // the trigger arrival is the flush instant
		}
		// Flush: each pooled message independently stays with probability
		// poolRetain. The in-place filter preserves arrival order on both
		// sides, and the retention stream is consumed in pool order, so
		// the draw sequence is a pure function of the event stream.
		kept := m.pool[:0]
		for _, ev := range m.pool {
			if m.rng.Float64() < poolRetain {
				kept = append(kept, ev)
				continue
			}
			r.add(ev)
		}
		m.pool = kept
		if len(r.Users) > 0 {
			e.emitRound()
			return nil
		}
		// Everything stayed behind: no observable flush. Gather another
		// batch; retain < 1 guarantees an emission with probability 1.
	}
}

// timedMix flushes on a fixed wall-clock grid: round k spans stream time
// [k·period, (k+1)·period). Cutting the stream at a grid boundary means
// reading one event past it, so the mix holds a one-event lookahead that
// opens the next round. Empty windows emit nothing and are skipped.
type timedMix struct {
	eng       *Engine
	period    float64
	nextFlush float64 // end of the window being assembled; 0 = unstarted
	peeked    bool
	peek      event
}

func (m *timedMix) NextRound(r *Round) error {
	e := m.eng
	r.reset()
	for {
		var ev event
		if m.peeked {
			ev, m.peeked = m.peek, false
		} else {
			var err error
			if ev, err = e.nextEvent(); err != nil {
				return err
			}
		}
		if m.nextFlush == 0 {
			// First event: align the grid to the window containing it.
			m.nextFlush = (math.Floor(ev.t/m.period) + 1) * m.period
		}
		if ev.t >= m.nextFlush {
			if len(r.Users) > 0 {
				// The window closes with this event still unconsumed:
				// stash it for the next round.
				m.peek, m.peeked = ev, true
				r.Flush = m.nextFlush
				m.nextFlush += m.period
				e.emitRound()
				return nil
			}
			// The window (and possibly many after it) was empty: no
			// observable flush. Skip to the window containing the event.
			m.nextFlush = (math.Floor(ev.t/m.period) + 1) * m.period
		}
		r.add(ev)
	}
}
