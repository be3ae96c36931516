package population

import (
	"math"
	"reflect"
	"testing"

	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// sda_ref_test.go: the sparse-estimator equivalence property. The SDA
// estimators store sparse recipient vectors (sparse.go); this file keeps
// the original dense formulation alive as a test-only reference and
// demands the production run's DisclosureResult be bit-identical to it —
// every float (mean rounds, anonymity entropies) compared exactly, over
// populations with and without cover, churn, and recipient spaces much
// larger than any estimator's observed support.

// denseRefTarget is one target of the dense reference estimator: the
// original length-R accumulators.
type denseRefTarget struct {
	user       int32
	contacts   []int32
	presence   *traffic.OnOffSchedule
	sumWith    []float64
	sumWithout []float64
	nWith      int
	nWithout   int
	roundsWith int
	masked     int
	streak     int
	disclosed  bool
	rounds     int
	sent       bool
}

// denseRef replicates the pre-sparse disclosure estimator verbatim.
type denseRef struct {
	cfg       DisclosureConfig
	targets   []denseRefTarget
	targetIdx []int32
	est       []float64
	topIdx    []int32
	topVal    []float64
	setScr    []int32
}

func newDenseRef(t *testing.T, e *Engine, cfg DisclosureConfig) *denseRef {
	t.Helper()
	d := &denseRef{
		cfg:       cfg,
		targets:   make([]denseRefTarget, len(cfg.Targets)),
		targetIdx: make([]int32, e.Users()),
		est:       make([]float64, e.nrcpt),
	}
	for i := range d.targetIdx {
		d.targetIdx[i] = -1
	}
	maxK := 0
	for i, u := range cfg.Targets {
		d.targetIdx[u] = int32(i)
		cs := e.ContactsOf(u)
		for a := 1; a < len(cs); a++ {
			for b := a; b > 0 && cs[b] < cs[b-1]; b-- {
				cs[b], cs[b-1] = cs[b-1], cs[b]
			}
		}
		if len(cs) > maxK {
			maxK = len(cs)
		}
		d.targets[i] = denseRefTarget{
			user:       int32(u),
			contacts:   cs,
			sumWith:    make([]float64, e.nrcpt),
			sumWithout: make([]float64, e.nrcpt),
		}
		if cfg.ChurnAware {
			d.targets[i].presence = e.PresenceOf(u)
		}
	}
	d.topIdx = make([]int32, maxK)
	d.topVal = make([]float64, maxK)
	d.setScr = make([]int32, maxK)
	return d
}

func (d *denseRef) observe(r *Round) {
	for i := range d.targets {
		d.targets[i].sent = false
	}
	for _, u := range r.Users {
		if ti := d.targetIdx[u]; ti >= 0 {
			d.targets[ti].sent = true
		}
	}
	var flushT float64
	if len(r.Times) > 0 {
		flushT = r.Times[len(r.Times)-1]
	}
	for i := range d.targets {
		t := &d.targets[i]
		dst := t.sumWithout
		if t.sent {
			dst = t.sumWith
			t.nWith++
			t.roundsWith++
		} else {
			if t.presence != nil && !t.presence.UpAt(flushT) {
				t.masked++
				continue
			}
			t.nWithout++
		}
		for _, rc := range r.Rcpts {
			dst[rc]++
		}
	}
}

func (d *denseRef) estimate(t *denseRefTarget) bool {
	if t.nWith == 0 || t.nWithout == 0 {
		return false
	}
	iw, iwo := 1/float64(t.nWith), 1/float64(t.nWithout)
	for i := range d.est {
		v := t.sumWith[i]*iw - t.sumWithout[i]*iwo
		if v < 0 {
			v = 0
		}
		d.est[i] = v
	}
	return true
}

func (d *denseRef) checkpoint(round int) (allDone bool) {
	allDone = true
	for i := range d.targets {
		t := &d.targets[i]
		if t.disclosed {
			continue
		}
		if !d.estimate(t) {
			allDone = false
			continue
		}
		k := len(t.contacts)
		top := d.topK(k)
		if setsEqual(top, t.contacts, d.setScr) {
			t.streak++
		} else {
			t.streak = 0
		}
		if t.streak >= disclosureStreak {
			t.disclosed = true
			t.rounds = round
		} else {
			allDone = false
		}
	}
	return allDone
}

// topK is the original dense ascending-index insertion pass over every
// recipient coordinate.
func (d *denseRef) topK(k int) []int32 {
	idx, val := d.topIdx[:0], d.topVal[:0]
	for i, v := range d.est {
		if len(idx) == k && v <= val[k-1] {
			continue
		}
		j := len(idx)
		if j < k {
			idx = append(idx, 0)
			val = append(val, 0)
		} else {
			j--
		}
		for j > 0 && v > val[j-1] {
			idx[j], val[j] = idx[j-1], val[j-1]
			j--
		}
		idx[j], val[j] = int32(i), v
	}
	d.topIdx, d.topVal = idx, val
	return idx
}

func (d *denseRef) anonymity(t *denseRefTarget) float64 {
	if !d.estimate(t) {
		return 1
	}
	var total float64
	for _, v := range d.est {
		total += v
	}
	if total <= 0 {
		return 1
	}
	var h float64
	for _, v := range d.est {
		if v > 0 {
			p := v / total
			h -= p * math.Log(p)
		}
	}
	return h / math.Log(float64(len(d.est)))
}

// runDenseReference executes the full disclosure loop — the same round,
// checkpoint and early-stop schedule as DisclosureRun — against the
// dense reference estimator.
func runDenseReference(t *testing.T, e *Engine, cfg DisclosureConfig) *DisclosureResult {
	t.Helper()
	cfg = cfg.withDefaults(e.Users())
	e.SetWorkers(cfg.Workers)
	d := newDenseRef(t, e, cfg)
	observed, done := 0, false
	var r Round
	for !done && observed < cfg.MaxRounds {
		round := observed + 1
		if err := e.NextRound(cfg.Batch, &r); err != nil {
			t.Fatal(err)
		}
		d.observe(&r)
		observed = round
		if round%cfg.CheckEvery == 0 && d.checkpoint(round) {
			done = true
		}
	}
	res := &DisclosureResult{Rounds: observed, Targets: make([]TargetOutcome, len(d.targets))}
	var sumRounds, sumAnon float64
	disclosed := 0
	for i := range d.targets {
		tg := &d.targets[i]
		rounds := cfg.MaxRounds
		if tg.disclosed {
			rounds = tg.rounds
			disclosed++
		}
		anon := d.anonymity(tg)
		res.Targets[i] = TargetOutcome{
			User:              int(tg.user),
			Disclosed:         tg.disclosed,
			Rounds:            rounds,
			RoundsWith:        tg.roundsWith,
			DegreeOfAnonymity: anon,
		}
		sumRounds += float64(rounds)
		sumAnon += anon
	}
	n := float64(len(d.targets))
	res.MeanRounds = sumRounds / n
	res.DisclosedFrac = float64(disclosed) / n
	res.MeanAnonymity = sumAnon / n
	return res
}

// refUsers builds a deterministic population over a parameterizable
// recipient space (testUsers pins 40; the sparse/dense property wants
// spaces much larger than the observed support too).
func refUsers(t testing.TB, n, recipients int, cover, churn bool) []User {
	t.Helper()
	build := refBuilder(t, recipients, cover, false)
	users := make([]User, n)
	for u := 0; u < n; u++ {
		var err error
		if users[u], err = build(u); err != nil {
			t.Fatal(err)
		}
		if churn {
			sched, err := traffic.NewOnOffSchedule(0.05, 0.05, xrand.New(uint64(7000+u)))
			if err != nil {
				t.Fatal(err)
			}
			users[u].Presence = sched
		}
	}
	return users
}

// TestSparseMatchesDenseReference is the equivalence property: the
// production sparse-estimator disclosure run must report bit-identical
// results to the dense reference, across population shapes up to N=1e3
// and recipient spaces from saturated (every coordinate observed) to
// very sparse, at one worker and at two.
func TestSparseMatchesDenseReference(t *testing.T) {
	cases := []struct {
		name       string
		n          int
		recipients int
		cover      bool
		churn      bool
		rounds     int
	}{
		{"small-saturated", 16, 40, true, false, 600},
		{"churned", 12, 40, true, true, 600},
		{"sparse-space", 64, 800, false, false, 400},
		{"sparse-cover-churn", 48, 500, true, true, 400},
		{"thousand-users", 1000, 300, true, false, 150},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DisclosureConfig{
				Batch:      8,
				MaxRounds:  tc.rounds,
				CheckEvery: 25,
				ChurnAware: tc.churn,
				Workers:    1,
			}
			build := func() *Engine {
				e, err := NewEngine(refUsers(t, tc.n, tc.recipients, tc.cover, tc.churn), tc.recipients)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			want := runDenseReference(t, build(), cfg)
			// At two workers the engine generates ahead, and a churn-aware
			// run queries its targets' presence while the background
			// generation queries theirs.
			for _, workers := range []int{1, 2} {
				cfg := cfg
				cfg.Workers = workers
				got, err := runDisclosure(build(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: sparse run differs from dense reference\ngot  %+v\nwant %+v", workers, got, want)
				}
			}
			// The sparse estimators must actually be sparse when the space
			// allows it: no accumulator may have materialized the full
			// recipient space unless rounds genuinely delivered everywhere.
			if tc.recipients >= 500 {
				run, err := build().StartDisclosure(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := run.Step(cfg.MaxRounds); err != nil {
					t.Fatal(err)
				}
				for i := range run.d.targets {
					est := run.d.targets[i].est.(*classicEstimator)
					if est.sumWith.nnz() >= tc.recipients {
						t.Fatalf("target %d sum_with support %d saturated the %d-recipient space",
							i, est.sumWith.nnz(), tc.recipients)
					}
				}
			}
		})
	}
}
