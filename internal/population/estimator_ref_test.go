package population

import (
	"math"
	"testing"
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

// fedTarget is one target's estimator over a background sum of its own,
// fed recorded rounds as disclosure.observe feeds a target that is never
// masked.
type fedTarget struct {
	sum roundSum
	bg  background
	est estimator
	h   rcptHist
}

func newFedTarget(k EstimatorKind) *fedTarget {
	f := &fedTarget{sum: roundSum{byN: k == EstimatorLeastSquares}}
	f.bg.sum = &f.sum
	f.est = newEstimator(k, &f.bg)
	return f
}

// observe folds one recorded round into the background and the
// estimator.
func (f *fedTarget) observe(rec recordedRound) {
	f.h.build(rec.rcpts)
	f.sum.add(&f.sum.sparseVec, &f.h)
	f.est.observe(&f.h, rec.cnt)
}

// feedEstimator folds the recorded rounds into a fresh estimator of the
// given kind, exactly as disclosure.observe would.
func feedEstimator(k EstimatorKind, rounds []recordedRound) estimator {
	f := newFedTarget(k)
	for _, rec := range rounds {
		f.observe(rec)
	}
	return f.est
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
			if !est.ready(nil) {
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
	if !est.ready(nil) {
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
	if !est.ready(&mlScratch{}) {
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

// TestMLGroupingIsExact: the estimator's statistics equal those grouped
// straight from the recorded round list, whichever order the rounds
// fold in. The (a, n) groups with a > 0 stay sorted with exact summed
// counts, withCnt is their total, and the background is Σy over every
// round — the grouping loses nothing the mixture likelihood depends on.
func TestMLGroupingIsExact(t *testing.T) {
	const n, recipients, batch, rounds = 16, 40, 8, 250
	e, err := NewEngine(refUsers(t, n, recipients, true, false), recipients)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(1)
	recs := collectTargetRounds(t, e, 5, batch, rounds)
	want := groupRounds(recs)
	fwd := newFedTarget(EstimatorML)
	rev := newFedTarget(EstimatorML)
	for i := range recs {
		fwd.observe(recs[i])
		rev.observe(recs[len(recs)-1-i])
	}
	var wantWith, wantAll sparseVec
	var with []refGroup
	var total float64
	for _, g := range want {
		for k, r := range g.y.idx {
			wantAll.add(r, g.y.val[k])
			if g.a > 0 {
				wantWith.add(r, g.y.val[k])
			}
		}
		if g.a > 0 {
			with = append(with, g)
		}
		total += g.c
	}
	if total != float64(rounds) {
		t.Fatalf("the reference groups account for %v rounds, want %d", total, rounds)
	}
	for name, f := range map[string]*fedTarget{"forward": fwd, "reversed": rev} {
		m := f.est.(*mlEstimator)
		if len(m.groups) != len(with) {
			t.Fatalf("%s: %d groups, the round list has %d with a > 0", name, len(m.groups), len(with))
		}
		for gi := range m.groups {
			g, w := &m.groups[gi], &with[gi]
			if g.a != w.a || g.n != w.n {
				t.Fatalf("%s: group %d is (%d,%d), want (%d,%d)", name, gi, g.a, g.n, w.a, w.n)
			}
			if !sameBits(&g.y, &w.y) {
				t.Fatalf("%s: group (%d,%d) y differs from the round list's", name, g.a, g.n)
			}
		}
		if !sameBits(&m.withCnt, &wantWith) {
			t.Fatalf("%s: withCnt differs from the round list's with-round sum", name)
		}
		var all sparseVec
		f.bg.set(&all)
		if !sameBits(&all, &wantAll) {
			t.Fatalf("%s: background differs from the round list's sum", name)
		}
	}
}

// refGroup is one (a, n) group of recorded rounds, a = 0 included: c
// rounds and their summed egress counts.
type refGroup struct {
	a, n int32
	c    float64
	y    sparseVec
}

// groupRounds groups recorded rounds by (a, n), ascending, with a
// search-and-insert per delivery — the oracle's statistics, built from
// the round list alone.
func groupRounds(recs []recordedRound) []refGroup {
	var gs []refGroup
	for _, rec := range recs {
		a, n := int32(rec.cnt), int32(len(rec.rcpts))
		k := 0
		for k < len(gs) && (gs[k].a < a || (gs[k].a == a && gs[k].n < n)) {
			k++
		}
		if k == len(gs) || gs[k].a != a || gs[k].n != n {
			gs = append(gs, refGroup{})
			copy(gs[k+1:], gs[k:])
			gs[k] = refGroup{a: a, n: n}
		}
		gs[k].c++
		for _, r := range rec.rcpts {
			gs[k].y.add(r, 1)
		}
	}
	return gs
}

// refreshSearchReference is the ML refresh before the running counts
// and the recipient-major E-step, kept as the oracle. It runs on groups
// built from the recorded rounds (groupRounds, a = 0 groups included),
// rebuilds p's and q's initializers from them with a search-and-insert
// per entry, and runs its E-step group-major, binary-searching p and q
// for every entry of every sweep. Only its M-step accumulators live in
// sc.
func refreshSearchReference(groups []refGroup, sc *mlScratch) (p, q sparseVec) {
	for gi := range groups {
		g := &groups[gi]
		for k, r := range g.y.idx {
			q.add(r, g.y.val[k])
			if g.a > 0 {
				p.add(r, g.y.val[k])
			}
		}
	}
	normalizeVec(&p)
	normalizeVec(&q)
	if len(p.idx) == 0 || len(q.idx) == 0 {
		return p, q
	}
	tp, tq := grow(sc.tp, len(p.idx)), grow(sc.tq, len(q.idx))
	sc.tp, sc.tq = tp, tq
	for iter := 0; iter < mlEMIters; iter++ {
		for i := range tp {
			tp[i] = 0
		}
		for i := range tq {
			tq[i] = 0
		}
		for gi := range groups {
			g := &groups[gi]
			a, b := float64(g.a), float64(g.n-g.a)
			for k, r := range g.y.idx {
				y := g.y.val[k]
				qi, _ := q.find(r) // q spans the full support
				var pv float64
				pi, pok := p.find(r)
				if pok {
					pv = p.val[pi]
				}
				den := a*pv + b*q.val[qi]
				if den <= 0 {
					continue
				}
				// E-step: expected target-origin mass of the y deliveries.
				w := a * pv / den
				if pok {
					tp[pi] += y * w
				}
				tq[qi] += y * (1 - w)
			}
		}
		// M-step: renormalize both components.
		var sp, sq float64
		for _, v := range tp {
			sp += v
		}
		for _, v := range tq {
			sq += v
		}
		if sp > 0 {
			for i := range tp {
				p.val[i] = tp[i] / sp
			}
		}
		if sq > 0 {
			for i := range tq {
				q.val[i] = tq[i] / sq
			}
		}
	}
	return p, q
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
// recipient-major refresh must reproduce the search-per-entry reference
// exactly — equal supports and bit-identical p and q — over threshold,
// pool and timed rounds (the last two vary in size). One scratch serves
// every refresh, as a disclosure worker's does. A hand-built round list
// covers the recipient-major loop's edge cases (mlEdgeRounds).
func TestMLRefreshMatchesSearchReference(t *testing.T) {
	const rounds = 240
	for _, tc := range []struct {
		spec  MixSpec
		varyN bool
	}{
		{MixSpec{Kind: MixThreshold}, false},
		{MixSpec{Kind: MixPool, Seed: 5}, true},
		{MixSpec{Kind: MixTimed}, true},
	} {
		t.Run(tc.spec.Kind.String(), func(t *testing.T) {
			recs := collectMixRounds(t, tc.spec, 3, rounds)
			sizes := map[int]bool{}
			for _, rec := range recs {
				sizes[len(rec.rcpts)] = true
			}
			if tc.varyN && len(sizes) < 2 {
				t.Fatalf("every round has the same size; the test needs varying n")
			}
			f := newFedTarget(EstimatorML)
			m := f.est.(*mlEstimator)
			var sc, refSc mlScratch
			for i, rec := range recs {
				f.observe(rec)
				m.refresh(&sc)
				p, q := refreshSearchReference(groupRounds(recs[:i+1]), &refSc)
				if !sameBits(&m.p, &p) || !sameBits(&m.q, &q) {
					t.Fatalf("round %d: refresh differs from the search reference", i+1)
				}
			}
		})
	}
	t.Run("edge-cases", func(t *testing.T) {
		m := feedEstimator(EstimatorML, mlEdgeRounds).(*mlEstimator)
		if !m.ready(&mlScratch{}) {
			t.Fatal("ML estimator not ready after the hand-built rounds")
		}
		p, q := refreshSearchReference(groupRounds(mlEdgeRounds), &mlScratch{})
		if !sameBits(&m.p, &p) || !sameBits(&m.q, &q) {
			t.Fatalf("refresh differs from the search reference:\np %v q %v\nreference p %v q %v",
				m.p, m.q, p, q)
		}
		if _, ok := m.p.find(5); ok {
			t.Error("recipient 5 is in p's support; the case needs it outside")
		}
		if _, ok := m.q.find(5); !ok {
			t.Error("recipient 5 is missing from q's support")
		}
		if k, ok := m.q.find(4); !ok || m.q.val[k] != 0 {
			t.Errorf("q[4] = %v (present %t), want exactly 0", m.q.get(4), ok)
		}
		if m.p.get(4) <= 0 {
			t.Errorf("p[4] = %v, want positive", m.p.get(4))
		}
	})
}

// mlEdgeRounds reaches the recipient-major E-step's edge cases:
//
//   - recipient 5 is delivered only in rounds the target did not send
//     in, so it lies outside p's support and gets only the folded
//     a = 0 sum;
//   - the target sent every message of the a = n rounds, where b = 0
//     and w = 1;
//   - recipient 4 is delivered only in a = n rounds, so the first sweep
//     gives it no background mass and q[4] is exactly 0 from then on.
var mlEdgeRounds = []recordedRound{
	{rcpts: []int32{0, 1, 5}},            // a = 0
	{rcpts: []int32{2, 4}, cnt: 2},       // a = n
	{rcpts: []int32{0, 2, 3}, cnt: 1},    // a = 1, n = 3
	{rcpts: []int32{1, 3, 3, 5}},         // a = 0, n = 4
	{rcpts: []int32{0, 1}, cnt: 1},       // a = 1, n = 2
	{rcpts: []int32{4, 2, 0}, cnt: 3},    // a = n = 3
	{rcpts: []int32{3, 0, 2, 1}, cnt: 2}, // a = 2, n = 4
	{rcpts: []int32{5, 5, 0}},            // a = 0, n = 3
	{rcpts: []int32{0, 2, 3}, cnt: 1},    // a = 1, n = 3 again
	{rcpts: []int32{2, 1, 0, 3}, cnt: 1}, // a = 1, n = 4
}

// BenchmarkMLRefresh times one ML refresh over grouped statistics shaped
// like the league's timed- and pool-mix cells after their 240-round
// budget, for the recipient-major refresh and the search-per-entry
// reference.
func BenchmarkMLRefresh(b *testing.B) {
	for _, spec := range []MixSpec{{Kind: MixTimed}, {Kind: MixPool}} {
		recs := collectMixRounds(b, spec, 3, 240)
		m := feedEstimator(EstimatorML, recs).(*mlEstimator)
		b.Run(spec.Kind.String()+"/recipient-major", func(b *testing.B) {
			var sc mlScratch
			m.refresh(&sc) // grow the scratch before timing
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.refresh(&sc)
			}
		})
		b.Run(spec.Kind.String()+"/search-reference", func(b *testing.B) {
			groups := groupRounds(recs)
			var sc mlScratch
			refreshSearchReference(groups, &sc) // grow the scratch before timing
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				refreshSearchReference(groups, &sc)
			}
		})
	}
}
