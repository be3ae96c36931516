package population

import (
	"fmt"

	"linkpad/internal/par"
)

// Dummy policies (dummy.go): the resistance side of the SDA arms race —
// how a target user addresses its cover messages. The engine generates
// cover arrivals addressed to uniformly random recipients; a dummy
// policy may re-address a target's cover on its way through the mix:
//
//   - none: no policy; cover traffic, if the population sends any,
//     keeps its uniform recipients (the pre-policy behavior, and the
//     zero value);
//   - uniform: receiver-bound dummies to uniformly random recipients —
//     the engine's native cover, named so the league table can demand
//     cover traffic explicitly (validation requires a cover rate);
//   - adaptive: each target re-addresses its dummies to the adversary's
//     current top non-contact suspects, feeding the estimator's own
//     output back against it. Boosting exactly the false contacts the
//     estimator already ranks highest keeps them competitive with the
//     true contacts, so the top-k set never stabilizes on the truth.
//
// Determinism: re-addressing happens in the sequential Step loop —
// after the mix flushes a round, before the estimators observe it — so
// it is worker-count-invariant by construction. The one parallel step
// comes before it: the estimators of the targets with a dummy in the
// round are brought up to date on up to Workers goroutines. Each
// estimator is private to its target and its estimate is a pure
// function of its own accumulators, so the sequential pass reads the
// same suspects at any width. The suspects a target aims at are
// computed from the estimator's state as of the *previous* rounds
// (estimators observe a round only after the dummy policy has acted on
// it), so there is no feedback race within a round; and the rotation
// over suspects uses a plain message counter (dumCount), not a random
// stream, so the addressing is a pure function of the rounds observed.
// Reading Round.Dummy here is legitimate: the policy is the *defender*,
// and a sender knows which of its own messages are dummies — the
// adversary's estimators still never read the flag.
type DummyPolicy int

const (
	// DummyNone applies no dummy policy: cover traffic, if any, stays on
	// uniformly random recipients.
	DummyNone DummyPolicy = iota
	// DummyUniform sends receiver-bound dummies to uniformly random
	// recipients; requires a positive cover rate.
	DummyUniform
	// DummyAdaptive re-addresses each target's dummies to the
	// estimator's current top non-contact suspects; requires a positive
	// cover rate.
	DummyAdaptive
)

// String names the policy for tables and errors.
func (p DummyPolicy) String() string {
	switch p {
	case DummyNone:
		return "none"
	case DummyUniform:
		return "uniform"
	case DummyAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("DummyPolicy(%d)", int(p))
	}
}

// validDummyPolicy reports whether p names a policy.
func validDummyPolicy(p DummyPolicy) bool {
	return p >= DummyNone && p <= DummyAdaptive
}

// applyDummies runs the dummy policy over a freshly flushed round,
// before any estimator observes it. None and uniform are no-ops here —
// the engine's native cover already addresses dummies uniformly — so
// only the adaptive policy rewrites recipients. It first collects the
// targets with a dummy in the round and brings their estimators up to
// date in parallel (for ML, one EM refresh per target); the sequential
// re-addressing loop's suspects calls then find every estimator clean.
// Allocation-free in steady state at one worker.
func (d *disclosure) applyDummies(r *Round) {
	if d.cfg.Dummies != DummyAdaptive {
		return
	}
	for i := range d.targets {
		d.targets[i].susFresh = false
		d.targets[i].due = false
	}
	d.due = d.due[:0]
	for k, u := range r.Users {
		if ti := d.targetIdx[u]; r.Dummy[k] && ti >= 0 && !d.targets[ti].due {
			d.targets[ti].due = true
			d.due = append(d.due, ti)
		}
	}
	_ = par.MapWorker(len(d.due), d.workers, d.readyDue) // readyDue never fails
	for k, u := range r.Users {
		if !r.Dummy[k] {
			continue
		}
		ti := d.targetIdx[u]
		if ti < 0 {
			continue
		}
		t := &d.targets[ti]
		sus := d.suspects(t)
		if len(sus) == 0 {
			continue
		}
		r.Rcpts[k] = sus[t.dumCount%len(sus)]
		t.dumCount++
	}
}

// suspects returns the target's current decoy set: the estimator's top
// len(contacts) positively estimated non-contact coordinates, ordered
// by descending estimate (ties toward the lower index). Computed at
// most once per round per target; empty while the estimator has no
// estimate or ranks only true contacts, in which case the dummy keeps
// its uniform recipient.
func (d *disclosure) suspects(t *targetState) []int32 {
	if t.susFresh {
		return t.sus
	}
	t.susFresh = true
	t.sus = t.sus[:0]
	if !t.est.ready(&d.scratch[0]) {
		return t.sus
	}
	k := len(t.contacts)
	idx, val := t.sus, d.susVal[:0]
	for _, i := range t.est.support() {
		if containsSorted(t.contacts, i) {
			continue
		}
		v := t.est.estimateAt(i)
		if v <= 0 {
			continue
		}
		idx, val = insertTopK(idx, val, k, i, v)
	}
	t.sus = idx
	return t.sus
}

// insertTopK offers index i with value v to the k-best list (idx, val),
// kept in descending value. An offer enters only when it beats the
// current k-th value, so among equal values the first offered stays:
// offered in ascending index order, ties go to the lower index.
func insertTopK(idx []int32, val []float64, k int, i int32, v float64) ([]int32, []float64) {
	j := len(idx)
	if j < k {
		idx, val = append(idx, 0), append(val, 0)
	} else if v <= val[k-1] {
		return idx, val
	} else {
		j--
	}
	for ; j > 0 && v > val[j-1]; j-- {
		idx[j], val[j] = idx[j-1], val[j-1]
	}
	idx[j], val[j] = i, v
	return idx, val
}

// containsSorted reports whether x occurs in the ascending slice s.
func containsSorted(s []int32, x int32) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case s[mid] < x:
			lo = mid + 1
		case s[mid] > x:
			hi = mid
		default:
			return true
		}
	}
	return false
}
