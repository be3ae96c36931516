package population

import (
	"encoding/json"
	"math"
	"testing"

	"linkpad/internal/xrand"
)

// estimator_ref_test.go: closed-form references for the arms-race
// estimators (estimator.go). The least-squares estimator must agree
// with a dense Gaussian-elimination oracle that solves the same normal
// equations by a different algorithm, and bit-identically with a dense
// mirror of its own accumulators; the ML estimator's EM refresh must
// agree with a reference EM whose E-step is the exhaustive Bayesian
// posterior enumerated over all 2^n per-message origin assignments, and
// bit-identically with the search-per-entry refresh it replaced.

// collectRounds drives an engine for R rounds through the threshold mix
// and records each round's egress (recipients) and per-target ingress
// (send count), the exact observation stream the estimators fold in.
type recordedRound struct {
	rcpts []int32
	cnt   int // the target's send count
}

func collectTargetRounds(t *testing.T, e *Engine, target int32, batch, rounds int) []recordedRound {
	t.Helper()
	var r Round
	out := make([]recordedRound, 0, rounds)
	for i := 0; i < rounds; i++ {
		if err := e.NextRound(batch, &r); err != nil {
			t.Fatal(err)
		}
		rec := recordedRound{rcpts: append([]int32(nil), r.Rcpts...)}
		for _, u := range r.Users {
			if u == target {
				rec.cnt++
			}
		}
		out = append(out, rec)
	}
	return out
}

// feedEstimator folds the recorded rounds into a fresh estimator of the
// given kind, exactly as disclosure.observe would.
func feedEstimator(k EstimatorKind, rounds []recordedRound) estimator {
	est := newEstimator(k)
	var h rcptHist
	for _, rec := range rounds {
		observeRecorded(est, &h, rec)
	}
	return est
}

// observeRecorded folds one recorded round into est through the
// histogram scratch h, as disclosure.observe does.
func observeRecorded(est estimator, h *rcptHist, rec recordedRound) {
	h.build(rec.rcpts)
	est.observe(h, rec.cnt > 0, rec.cnt)
}

// solve2x2Gauss solves [saa sab; sab sbb]·[p;q] = [say;sby] by Gaussian
// elimination with partial pivoting — deliberately not the Cramer's-rule
// expression the production estimator uses, so the two only agree if
// both are right.
func solve2x2Gauss(saa, sab, sbb, say, sby float64) (p float64) {
	m := [2][3]float64{{saa, sab, say}, {sab, sbb, sby}}
	if math.Abs(m[1][0]) > math.Abs(m[0][0]) {
		m[0], m[1] = m[1], m[0]
	}
	f := m[1][0] / m[0][0]
	for j := 1; j < 3; j++ {
		m[1][j] -= f * m[0][j]
	}
	q := m[1][2] / m[1][1]
	return (m[0][2] - m[0][1]*q) / m[0][0]
}

// TestLeastSquaresMatchesGaussianOracle: over populations up to N=64,
// the sparse least-squares estimate at every recipient must match a
// dense oracle that re-accumulates the moments from the recorded rounds
// and solves each 2×2 system by Gaussian elimination.
func TestLeastSquaresMatchesGaussianOracle(t *testing.T) {
	cases := []struct {
		name       string
		n          int
		recipients int
		cover      bool
		batch      int
		rounds     int
	}{
		{"small", 12, 40, false, 8, 400},
		{"cover", 24, 60, true, 16, 400},
		{"n64-sparse", 64, 800, false, 32, 300},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(refUsers(t, tc.n, tc.recipients, tc.cover, false), tc.recipients)
			if err != nil {
				t.Fatal(err)
			}
			e.SetWorkers(1)
			target := int32(tc.n / 2)
			rounds := collectTargetRounds(t, e, target, tc.batch, tc.rounds)
			est := feedEstimator(EstimatorLeastSquares, rounds)
			if !est.ready() {
				t.Fatal("least-squares estimator not ready after the recorded rounds")
			}
			// Dense oracle: re-accumulate everything from the round list.
			var saa, sab, sbb float64
			say := make([]float64, tc.recipients)
			sby := make([]float64, tc.recipients)
			for _, rec := range rounds {
				a := float64(rec.cnt)
				b := float64(len(rec.rcpts) - rec.cnt)
				saa += a * a
				sab += a * b
				sbb += b * b
				for _, rc := range rec.rcpts {
					say[rc] += a
					sby[rc] += b
				}
			}
			if det := saa*sbb - sab*sab; !(det > 0) {
				t.Fatalf("oracle system degenerate (det=%v); pick a longer run", det)
			}
			for i := 0; i < tc.recipients; i++ {
				want := solve2x2Gauss(saa, sab, sbb, say[i], sby[i])
				if want < 0 {
					want = 0
				}
				got := est.estimateAt(int32(i))
				if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("recipient %d: sparse LS %v vs Gaussian oracle %v", i, got, want)
				}
			}
		})
	}
}

// TestLSSparseMatchesDenseBitIdentical extends the sparse/dense
// bit-identity property (sda_ref_test.go) to the least-squares
// accumulators: a dense mirror fed the identical per-delivery additions
// in the identical order must reproduce every estimate coordinate
// exactly — absent sparse coordinates are exact zeros, and the Cramer
// expression over equal inputs yields equal floats.
func TestLSSparseMatchesDenseBitIdentical(t *testing.T) {
	const n, recipients, batch, rounds = 48, 500, 8, 500
	e, err := NewEngine(refUsers(t, n, recipients, true, false), recipients)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(1)
	target := int32(n / 3)
	recs := collectTargetRounds(t, e, target, batch, rounds)
	est := feedEstimator(EstimatorLeastSquares, recs).(*lsEstimator)

	// Dense mirror: the same per-delivery additions in the same order.
	var saa, sab, sbb float64
	say := make([]float64, recipients)
	sby := make([]float64, recipients)
	for _, rec := range recs {
		a := float64(rec.cnt)
		b := float64(len(rec.rcpts) - rec.cnt)
		saa += a * a
		sab += a * b
		sbb += b * b
		if a > 0 {
			for _, rc := range rec.rcpts {
				say[rc] += a
			}
		}
		if b > 0 {
			for _, rc := range rec.rcpts {
				sby[rc] += b
			}
		}
	}
	if saa != est.saa || sab != est.sab || sbb != est.sbb {
		t.Fatalf("scalar moments differ: sparse (%v,%v,%v) dense (%v,%v,%v)",
			est.saa, est.sab, est.sbb, saa, sab, sbb)
	}
	if !est.ready() {
		t.Fatal("estimator not ready")
	}
	inv := 1 / (saa*sbb - sab*sab)
	support := 0
	for i := 0; i < recipients; i++ {
		want := (sbb*say[i] - sab*sby[i]) * inv
		if want < 0 {
			want = 0
		}
		if got := est.estimateAt(int32(i)); got != want {
			t.Fatalf("recipient %d: sparse estimate %v != dense %v (bit-identity)", i, got, want)
		}
		if say[i] != 0 {
			support++
		}
	}
	if nnz := est.say.nnz(); nnz != support {
		t.Fatalf("sparse say support %d, dense has %d non-zeros", nnz, support)
	}
	if support >= recipients {
		t.Fatalf("say support saturated the %d-recipient space; the sparsity property is vacuous", recipients)
	}
}

// exhaustivePosterior computes, by brute force over all 2^n independent
// origin assignments, the Bayesian posterior that each message of a
// round originated from the target — the mixture model's E-step ground
// truth. Each message is a priori the target's with probability a/n and
// then draws its recipient from p, else from q.
func exhaustivePosterior(rcpts []int32, a int, p, q []float64) []float64 {
	n := len(rcpts)
	prior := float64(a) / float64(n)
	post := make([]float64, n)
	var total float64
	for mask := 0; mask < 1<<n; mask++ {
		w := 1.0
		for k := 0; k < n; k++ {
			if mask&(1<<k) != 0 {
				w *= prior * p[rcpts[k]]
			} else {
				w *= (1 - prior) * q[rcpts[k]]
			}
		}
		total += w
		for k := 0; k < n; k++ {
			if mask&(1<<k) != 0 {
				post[k] += w
			}
		}
	}
	for k := range post {
		post[k] /= total
	}
	return post
}

// TestMLRefreshMatchesExhaustivePosteriorEM: run the production ML
// estimator on rounds of at most 8 messages, then replay the identical
// EM schedule in a dense reference whose E-step uses the exhaustive
// 2^n-assignment posterior instead of the closed form. The trajectories
// must coincide — the closed form IS the exact posterior under the
// mixture model — so the final estimates agree to float tolerance, and
// the refresh must not have decreased the exact grouped log-likelihood
// relative to its own initializer.
func TestMLRefreshMatchesExhaustivePosteriorEM(t *testing.T) {
	const n, recipients, batch, rounds = 10, 24, 6, 300
	e, err := NewEngine(refUsers(t, n, recipients, false, false), recipients)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(1)
	target := int32(2)
	recs := collectTargetRounds(t, e, target, batch, rounds)
	for _, rec := range recs {
		if len(rec.rcpts) > 8 {
			t.Fatalf("round carries %d messages; the exhaustive oracle needs n <= 8", len(rec.rcpts))
		}
	}
	est := feedEstimator(EstimatorML, recs).(*mlEstimator)
	if !est.ready() {
		t.Fatal("ML estimator not ready after the recorded rounds")
	}

	// Reference EM over the raw (ungrouped) round list: same init as
	// refresh() — p from with-round deliveries, q from all — then
	// mlEMIters sweeps whose E-step is the exhaustive posterior.
	p := make([]float64, recipients)
	q := make([]float64, recipients)
	for _, rec := range recs {
		for _, rc := range rec.rcpts {
			q[rc]++
			if rec.cnt > 0 {
				p[rc]++
			}
		}
	}
	normalizeDense := func(v []float64) {
		var tot float64
		for _, x := range v {
			tot += x
		}
		for i := range v {
			v[i] /= tot
		}
	}
	normalizeDense(p)
	normalizeDense(q)
	logLik := func(p, q []float64) float64 {
		var ll float64
		for _, rec := range recs {
			a := float64(rec.cnt)
			b := float64(len(rec.rcpts) - rec.cnt)
			for _, rc := range rec.rcpts {
				ll += math.Log(a*p[rc] + b*q[rc])
			}
		}
		return ll
	}
	initLik := logLik(p, q)
	tp := make([]float64, recipients)
	tq := make([]float64, recipients)
	for iter := 0; iter < mlEMIters; iter++ {
		for i := range tp {
			tp[i], tq[i] = 0, 0
		}
		for _, rec := range recs {
			post := exhaustivePosterior(rec.rcpts, rec.cnt, p, q)
			for k, rc := range rec.rcpts {
				tp[rc] += post[k]
				tq[rc] += 1 - post[k]
			}
		}
		normalizeDense(tp)
		normalizeDense(tq)
		copy(p, tp)
		copy(q, tq)
	}
	for i := 0; i < recipients; i++ {
		got := est.estimateAt(int32(i))
		if math.Abs(got-p[i]) > 1e-9 {
			t.Fatalf("recipient %d: ML estimate %v vs exhaustive-posterior EM %v", i, got, p[i])
		}
	}
	// EM must improve (or hold) the exact likelihood over its initializer.
	final := make([]float64, recipients)
	finalQ := make([]float64, recipients)
	for k, i := range est.p.idx {
		final[i] = est.p.val[k]
	}
	for k, i := range est.q.idx {
		finalQ[i] = est.q.val[k]
	}
	if got := logLik(final, finalQ); got < initLik-1e-9 {
		t.Fatalf("EM decreased the log-likelihood: init %v, after refresh %v", initLik, got)
	}
}

// TestMLGroupingIsExact: folding rounds in a different order produces
// the same grouped sufficient statistics, and the (a, n) group list
// stays sorted with exact counts — the grouping loses nothing the
// mixture likelihood depends on.
func TestMLGroupingIsExact(t *testing.T) {
	const n, recipients, batch, rounds = 16, 40, 8, 250
	e, err := NewEngine(refUsers(t, n, recipients, true, false), recipients)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(1)
	recs := collectTargetRounds(t, e, 5, batch, rounds)
	fwd := feedEstimator(EstimatorML, recs).(*mlEstimator)
	rev := newEstimator(EstimatorML).(*mlEstimator)
	var h rcptHist
	for i := len(recs) - 1; i >= 0; i-- {
		observeRecorded(rev, &h, recs[i])
	}
	if len(fwd.groups) != len(rev.groups) {
		t.Fatalf("group counts differ: %d forward vs %d reversed", len(fwd.groups), len(rev.groups))
	}
	var totalRounds float64
	for gi := range fwd.groups {
		a, b := &fwd.groups[gi], &rev.groups[gi]
		if a.a != b.a || a.n != b.n || a.c != b.c {
			t.Fatalf("group %d keys differ: (%d,%d,%v) vs (%d,%d,%v)", gi, a.a, a.n, a.c, b.a, b.n, b.c)
		}
		if a.y.nnz() != b.y.nnz() {
			t.Fatalf("group %d y supports differ: %d vs %d", gi, a.y.nnz(), b.y.nnz())
		}
		if gi > 0 {
			prev := &fwd.groups[gi-1]
			if prev.a > a.a || (prev.a == a.a && prev.n >= a.n) {
				t.Fatalf("groups not ascending at %d", gi)
			}
		}
		for k, idx := range a.y.idx {
			if got := b.y.get(idx); got != a.y.val[k] {
				t.Fatalf("group %d y[%d] differs: %v vs %v", gi, idx, a.y.val[k], got)
			}
		}
		totalRounds += a.c
	}
	if totalRounds != float64(rounds) {
		t.Fatalf("groups account for %v rounds, want %d", totalRounds, rounds)
	}
}

// refreshSearchReference is the ML refresh before the running counts
// and slot maps, kept verbatim as the oracle: it rebuilds p's and q's
// initializers from the groups with a search-and-insert per entry, and
// its E-step binary-searches p and q for every entry of every sweep.
// Run it on an estimator holding a copy of the groups (cloneGroups).
func refreshSearchReference(m *mlEstimator) {
	m.p.idx, m.p.val = m.p.idx[:0], m.p.val[:0]
	m.q.idx, m.q.val = m.q.idx[:0], m.q.val[:0]
	for gi := range m.groups {
		g := &m.groups[gi]
		for k, r := range g.y.idx {
			m.q.add(r, g.y.val[k])
			if g.a > 0 {
				m.p.add(r, g.y.val[k])
			}
		}
	}
	normalizeVec(&m.p)
	normalizeVec(&m.q)
	if len(m.p.idx) == 0 || len(m.q.idx) == 0 {
		return
	}
	m.tp = resize(m.tp, len(m.p.idx))
	m.tq = resize(m.tq, len(m.q.idx))
	for iter := 0; iter < mlEMIters; iter++ {
		for i := range m.tp {
			m.tp[i] = 0
		}
		for i := range m.tq {
			m.tq[i] = 0
		}
		for gi := range m.groups {
			g := &m.groups[gi]
			a, b := float64(g.a), float64(g.n-g.a)
			for k, r := range g.y.idx {
				y := g.y.val[k]
				qi, _ := m.q.find(r) // q spans the full support
				var pv float64
				pi, pok := m.p.find(r)
				if pok {
					pv = m.p.val[pi]
				}
				den := a*pv + b*m.q.val[qi]
				if den <= 0 {
					continue
				}
				// E-step: expected target-origin mass of the y deliveries.
				w := a * pv / den
				if pok {
					m.tp[pi] += y * w
				}
				m.tq[qi] += y * (1 - w)
			}
		}
		// M-step: renormalize both components.
		var sp, sq float64
		for _, v := range m.tp {
			sp += v
		}
		for _, v := range m.tq {
			sq += v
		}
		if sp > 0 {
			for i := range m.tp {
				m.p.val[i] = m.tp[i] / sp
			}
		}
		if sq > 0 {
			for i := range m.tq {
				m.q.val[i] = m.tq[i] / sq
			}
		}
	}
}

// cloneGroups deep-copies ML groups, so the reference cannot touch the
// estimator under test.
func cloneGroups(gs []mlGroup) []mlGroup {
	out := make([]mlGroup, len(gs))
	for i, g := range gs {
		out[i] = mlGroup{a: g.a, n: g.n, c: g.c}
		out[i].y.setPairs(g.y.idx, g.y.val)
	}
	return out
}

// sameBits reports whether two sparse vectors have equal supports and
// bit-identical values.
func sameBits(a, b *sparseVec) bool {
	if len(a.idx) != len(b.idx) || len(a.val) != len(b.val) {
		return false
	}
	for k := range a.idx {
		if a.idx[k] != b.idx[k] || math.Float64bits(a.val[k]) != math.Float64bits(b.val[k]) {
			return false
		}
	}
	return true
}

// League geometry: ext-sda-arms-race's population and mix batch.
const leagueUsers, leagueRecipients, leagueBatch = 24, 60, 48

// collectMixRounds drives a league-shaped engine with cover through the
// given mix policy and records target's observation stream. Pool and
// timed rounds vary in size, so the ML estimator sees many (a, n) keys.
func collectMixRounds(tb testing.TB, spec MixSpec, target int32, rounds int) []recordedRound {
	tb.Helper()
	e, err := NewEngine(refUsers(tb, leagueUsers, leagueRecipients, true, false), leagueRecipients)
	if err != nil {
		tb.Fatal(err)
	}
	e.SetWorkers(1)
	mix, err := e.NewMix(spec, leagueBatch)
	if err != nil {
		tb.Fatal(err)
	}
	var r Round
	out := make([]recordedRound, 0, rounds)
	for i := 0; i < rounds; i++ {
		if err := mix.NextRound(&r); err != nil {
			tb.Fatal(err)
		}
		rec := recordedRound{rcpts: append([]int32(nil), r.Rcpts...)}
		for _, u := range r.Users {
			if u == target {
				rec.cnt++
			}
		}
		out = append(out, rec)
	}
	return out
}

// TestMLRefreshMatchesSearchReference: after every observed round the
// search-free refresh must reproduce the search-per-entry reference
// exactly — equal supports and bit-identical p and q — over pool and
// timed rounds of varying size. An estimator restored from a JSON
// snapshot at a seeded random round rebuilds its running counts from
// the groups; it must hold the same counts as the original and keep
// matching the reference as rounds continue.
func TestMLRefreshMatchesSearchReference(t *testing.T) {
	const rounds = 240
	for _, spec := range []MixSpec{{Kind: MixPool, Seed: 5}, {Kind: MixTimed}} {
		t.Run(spec.Kind.String(), func(t *testing.T) {
			recs := collectMixRounds(t, spec, 3, rounds)
			sizes := map[int]bool{}
			for _, rec := range recs {
				sizes[len(rec.rcpts)] = true
			}
			if len(sizes) < 2 {
				t.Fatalf("every round has the same size; the test needs varying n")
			}
			kill := 1 + xrand.New(2026).Intn(rounds-1)
			est := newEstimator(EstimatorML).(*mlEstimator)
			var resumed *mlEstimator
			var h rcptHist
			for i, rec := range recs {
				observeRecorded(est, &h, rec)
				if resumed != nil {
					observeRecorded(resumed, &h, rec)
				}
				if i+1 == kill {
					resumed = jsonRoundTrip(t, est)
				}
				for _, m := range []*mlEstimator{est, resumed} {
					if m == nil {
						continue
					}
					m.refresh()
					ref := &mlEstimator{groups: cloneGroups(m.groups)}
					refreshSearchReference(ref)
					if !sameBits(&m.p, &ref.p) || !sameBits(&m.q, &ref.q) {
						t.Fatalf("round %d (resumed=%t): refresh differs from the search reference",
							i+1, m == resumed)
					}
				}
			}
			if resumed == nil {
				t.Fatal("the restore point was never reached")
			}
		})
	}
}

// jsonRoundTrip snapshots an ML estimator through JSON into a fresh one
// and checks the rebuilt running counts against the original's.
func jsonRoundTrip(t *testing.T, m *mlEstimator) *mlEstimator {
	t.Helper()
	var ts TargetEstimatorState
	m.snapshot(&ts)
	data, err := json.Marshal(&ts)
	if err != nil {
		t.Fatal(err)
	}
	var decoded TargetEstimatorState
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	out := newEstimator(EstimatorML).(*mlEstimator)
	if err := out.restore(&decoded, leagueRecipients); err != nil {
		t.Fatal(err)
	}
	if !sameBits(&out.allCnt, &m.allCnt) || !sameBits(&out.withCnt, &m.withCnt) {
		t.Fatal("restored running counts differ from the original's")
	}
	return out
}

// BenchmarkMLRefresh times one ML refresh over grouped statistics shaped
// like the league's timed-mix cells after their 240-round budget, for
// the search-free refresh and the search-per-entry reference.
func BenchmarkMLRefresh(b *testing.B) {
	m := newEstimator(EstimatorML).(*mlEstimator)
	var h rcptHist
	for _, rec := range collectMixRounds(b, MixSpec{Kind: MixTimed}, 3, 240) {
		observeRecorded(m, &h, rec)
	}
	b.Run("slot-map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.refresh()
		}
	})
	b.Run("search-reference", func(b *testing.B) {
		ref := &mlEstimator{groups: cloneGroups(m.groups)}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refreshSearchReference(ref)
		}
	})
}
