package population

import (
	"fmt"
	"sort"
)

// Disclosure estimators (estimator.go): the attack side of the SDA arms
// race. The original round-contrast estimator (Danezis' SDA) survives as
// EstimatorClassic; the refinements of Emamdoost et al. ("Statistical
// Disclosure: Improved, Extended, and Resisted") add two stronger
// variants behind a common interface:
//
//   - classic: difference of conditional mean egress vectors between
//     rounds the target sent in and rounds it did not — the binary
//     presence contrast;
//   - least-squares: regress each round's egress vector on the target's
//     actual send count a_i and the background count b_i, solving the
//     per-recipient 2×2 normal equations in closed form. Using counts
//     instead of presence extracts more signal per round, so disclosure
//     needs fewer rounds;
//   - ML: an iterative EM estimator for the mixture model "each of a
//     round's n_i messages is the target's with probability a_i/n_i and
//     draws its recipient from p, else from the background q". Rounds
//     enter the estimator only through the sufficient statistics
//     grouped by (a_i, n_i) — the per-message posterior depends on a
//     round only through that pair — so memory is bounded by the
//     observed support times the distinct (a, n) keys, never by the
//     round count.
//
// Every estimator accumulates sparsely (sparse.go) and exposes the same
// contract to the shared disclosure harness: an ascending candidate
// support that contains every strictly positive estimate coordinate,
// and a pointwise estimate. That contract is exactly what topK and the
// anonymity entropy need to reproduce their dense formulations
// bit-for-bit (sda_ref_test.go extends the dense-reference property to
// the new accumulators).

// EstimatorKind selects the statistical-disclosure estimator.
type EstimatorKind int

const (
	// EstimatorClassic is the original round-contrast SDA: the clamped
	// difference of conditional mean egress vectors.
	EstimatorClassic EstimatorKind = iota
	// EstimatorLeastSquares solves the per-recipient least-squares
	// system over (target count, background count) regressors.
	EstimatorLeastSquares
	// EstimatorML runs the iterative EM mixture estimator over grouped
	// sufficient statistics.
	EstimatorML
)

// String names the kind for tables and errors.
func (k EstimatorKind) String() string {
	switch k {
	case EstimatorClassic:
		return "classic"
	case EstimatorLeastSquares:
		return "least-squares"
	case EstimatorML:
		return "ml"
	default:
		return fmt.Sprintf("EstimatorKind(%d)", int(k))
	}
}

// validEstimator reports whether k names an estimator.
func validEstimator(k EstimatorKind) bool {
	return k >= EstimatorClassic && k <= EstimatorML
}

// estimator is one target's running disclosure estimator. The contract
// the shared harness (topK, anonymity, checkpoint) relies on:
//
//   - observe folds one round, given as its recipient histogram (the
//     egress view); sent/cnt are the target's presence and send count
//     in it (the ingress view). Rounds masked by the churn-aware filter
//     never reach observe.
//   - ready reports whether a pointwise estimate exists, caching
//     whatever reciprocals estimateAt needs; it must be called before
//     estimateAt and is idempotent between observes. sc is the calling
//     worker's refresh scratch, which only ML uses.
//   - support returns the ascending coordinate set containing every
//     strictly positive estimate; coordinates outside it evaluate to
//     exactly 0.
type estimator interface {
	observe(h *rcptHist, sent bool, cnt int)
	ready(sc *mlScratch) bool
	support() []int32
	estimateAt(i int32) float64
}

// newEstimator builds the estimator for one target.
func newEstimator(k EstimatorKind) estimator {
	switch k {
	case EstimatorLeastSquares:
		return &lsEstimator{}
	case EstimatorML:
		return &mlEstimator{}
	default:
		return &classicEstimator{}
	}
}

// classicEstimator is the original round-contrast estimator, extracted
// verbatim from the pre-interface targetState: sparse conditional-sum
// accumulators and the clamped difference of means. Every float
// operation and its order are unchanged, so tables produced through the
// interface are byte-identical to the pre-refactor ones.
type classicEstimator struct {
	sumWith    sparseVec
	sumWithout sparseVec
	nWith      int
	nWithout   int
	iw, iwo    float64 // 1/nWith, 1/nWithout, refreshed by ready
}

func (c *classicEstimator) observe(h *rcptHist, sent bool, _ int) {
	dst := &c.sumWithout
	if sent {
		dst = &c.sumWith
		c.nWith++
	} else {
		c.nWithout++
	}
	dst.fold(h.idx, h.cnt, 1)
}

func (c *classicEstimator) ready(*mlScratch) bool {
	if c.nWith == 0 || c.nWithout == 0 {
		return false
	}
	c.iw, c.iwo = 1/float64(c.nWith), 1/float64(c.nWithout)
	return true
}

func (c *classicEstimator) support() []int32 { return c.sumWith.idx }

// estimateAt evaluates the clamped difference of conditional egress
// means at coordinate i — the exact float expression the dense
// estimator computed per entry. Coordinates outside sumWith's support
// evaluate to exactly 0 (the difference is ≤ 0 there and clamps).
func (c *classicEstimator) estimateAt(i int32) float64 {
	v := c.sumWith.get(i)*c.iw - c.sumWithout.get(i)*c.iwo
	if v < 0 {
		v = 0
	}
	return v
}

// lsEstimator is the least-squares SDA: model round i's egress count at
// recipient r as y_i[r] ≈ a_i·p[r] + b_i·q[r], where a_i is the
// target's send count and b_i everyone else's, and solve the normal
// equations
//
//	[Saa Sab] [p[r]]   [Say[r]]
//	[Sab Sbb] [q[r]] = [Sby[r]]
//
// per recipient. The three scalar moments are shared across recipients;
// the two right-hand-side vectors accumulate sparsely: Say[r] gains a_i
// per delivery to r (only in rounds the target sent, so its support —
// the only place a positive estimate can live — stays as small as the
// classic estimator's), Sby[r] gains b_i per delivery. A round folds in
// as a_i·c and b_i·c for a recipient delivered c times. All accumulator
// values are integer-valued float64s, exact below 2^53, so the sparse
// accumulation agrees bit-for-bit with a dense mirror.
type lsEstimator struct {
	saa, sab, sbb float64
	say, sby      sparseVec
	inv           float64 // 1/det, refreshed by ready
}

func (l *lsEstimator) observe(h *rcptHist, _ bool, cnt int) {
	a := float64(cnt)
	b := float64(h.n - cnt)
	l.saa += a * a
	l.sab += a * b
	l.sbb += b * b
	if a > 0 {
		l.say.fold(h.idx, h.cnt, a)
	}
	if b > 0 {
		l.sby.fold(h.idx, h.cnt, b)
	}
}

// ready requires a non-degenerate system: det = Saa·Sbb − Sab² is
// positive once the observed (a_i, b_i) pairs are not all collinear —
// in practice one round with and one without the target.
func (l *lsEstimator) ready(*mlScratch) bool {
	det := l.saa*l.sbb - l.sab*l.sab
	if !(det > 0) {
		return false
	}
	l.inv = 1 / det
	return true
}

func (l *lsEstimator) support() []int32 { return l.say.idx }

// estimateAt solves the 2×2 system at coordinate i by Cramer's rule,
// clamped at 0. A positive solution needs Say[i] > 0 (Sbb > 0 whenever
// det > 0, and Sab, Sby are non-negative), so every positive estimate
// lies inside say's support.
func (l *lsEstimator) estimateAt(i int32) float64 {
	v := (l.sbb*l.say.get(i) - l.sab*l.sby.get(i)) * l.inv
	if v < 0 {
		v = 0
	}
	return v
}

// mlEMIters is the fixed EM iteration budget per refresh. The estimate
// is recomputed from scratch at every dirty ready() call — never warm-
// started — so the estimate is a pure function of the accumulated
// sufficient statistics, not of the CheckEvery schedule.
const mlEMIters = 12

// mlGroup is one (a, n) equivalence class of observed rounds: c rounds
// in which the target sent a of the n messages, with their summed
// egress counts. Grouping is exact — the mixture model's per-message
// posterior depends on a round only through (a, n) — so the EM estimate
// from the groups equals the EM estimate from the full round list.
type mlGroup struct {
	a, n int32
	c    float64
	y    sparseVec
}

// mlEstimator is the iterative ML (EM) estimator for the round mixture
// model. Memory is O(distinct (a, n) keys × observed support); the
// estimate p (and the background q it is jointly fitted with) is
// refreshed lazily at checkpoint boundaries, in the calling worker's
// mlScratch, so a target holds no refresh scratch.
//
// observe keeps q's and p's EM initializers as running counts (allCnt
// over every round, withCnt over the rounds the target sent in). The
// counts are integer-valued float64s, so their sums are exact in any
// order and equal, bit for bit, a sum over the groups.
type mlEstimator struct {
	groups   []mlGroup // ascending by (a, n)
	nWith    int
	nWithout int
	dirty    bool
	allCnt   sparseVec // Σy over all groups: q's EM initializer
	withCnt  sparseVec // Σy over groups with a > 0: p's EM initializer
	p        sparseVec // target estimate over the with-round support
	q        sparseVec // background estimate over the full support
}

// mlScratch is one worker's ML refresh scratch. A disclosure run owns
// one per worker and hands it to every refresh that worker runs; each
// slice grows geometrically and is reused across targets and refreshes,
// so steady-state refreshes allocate nothing. Nothing a refresh reads
// survives from an earlier one, so results never depend on which
// worker's scratch a refresh gets.
//
// ent holds the E-step's a > 0 entries transposed from group-major to
// recipient-major (CSR): q slot k's entries are ent[off[k]:off[k+1]],
// in ascending group order.
type mlScratch struct {
	qs     []int32   // recipient -> q slot, over q's span
	off    []int32   // CSR offsets, one per q slot plus one
	fill   []int32   // CSR fill cursors, one per q slot
	ent    []mlEntry // CSR entries
	no     []float64 // per q slot: Σy over the a = 0 groups
	tp, tq []float64 // M-step accumulators aligned with p.idx / q.idx
}

// mlEntry is one group's y deliveries to one recipient, with the
// group's a and b = n − a, so the E-step reads one array.
type mlEntry struct{ a, b, y float64 }

// group locates or inserts the (a, n) group, keeping the slice sorted.
func (m *mlEstimator) group(a, n int32) *mlGroup {
	lo := sort.Search(len(m.groups), func(i int) bool {
		g := &m.groups[i]
		return g.a > a || (g.a == a && g.n >= n)
	})
	if lo < len(m.groups) && m.groups[lo].a == a && m.groups[lo].n == n {
		return &m.groups[lo]
	}
	m.groups = append(m.groups, mlGroup{})
	copy(m.groups[lo+1:], m.groups[lo:])
	m.groups[lo] = mlGroup{a: a, n: n}
	return &m.groups[lo]
}

func (m *mlEstimator) observe(h *rcptHist, sent bool, cnt int) {
	g := m.group(int32(cnt), int32(h.n))
	g.c++
	g.y.fold(h.idx, h.cnt, 1)
	m.allCnt.fold(h.idx, h.cnt, 1)
	if cnt > 0 {
		m.withCnt.fold(h.idx, h.cnt, 1)
	}
	if sent {
		m.nWith++
	} else {
		m.nWithout++
	}
	m.dirty = true
}

func (m *mlEstimator) ready(sc *mlScratch) bool {
	if m.nWith == 0 || m.nWithout == 0 {
		return false
	}
	if m.dirty {
		m.refresh(sc)
		m.dirty = false
	}
	return true
}

// refresh recomputes the EM estimate from the grouped statistics:
// initialize p from the with-round deliveries and q from all
// deliveries, then run mlEMIters E+M sweeps. Initializing q from every
// round keeps q positive on the whole observed support, so every
// E-step denominator a·p[r] + b·q[r] is positive wherever y[r] > 0.
//
// The E-step runs recipient-major. p's and q's supports are fixed for
// the sweeps, p's is a subset of q's, and every a > 0 entry lies in p's
// (withCnt is the union of those groups' supports), so one walk over q
// meets each p slot in turn and keeps p[r], q[r] and both accumulators
// in registers. Each slot still receives its terms in ascending group
// order, so every float operation matches the group-major,
// search-per-entry E-step (the oracle in estimator_ref_test.go) bit for
// bit.
//
// The a = 0 groups (rounds the target did not send in) sort first and
// leave the CSR: their den = b·q[r] is positive exactly when q[r] > 0,
// and then w = 0·p[r]/den is exactly +0, so each adds y to tq[r] and +0
// to tp[r]. Their integer sum, allCnt − withCnt, is exact in any order,
// so tq[r] starts from it whenever q[r] > 0.
func (m *mlEstimator) refresh(sc *mlScratch) {
	m.p.setPairs(m.withCnt.idx, m.withCnt.val)
	m.q.setPairs(m.allCnt.idx, m.allCnt.val)
	normalizeVec(&m.p)
	normalizeVec(&m.q)
	if len(m.p.idx) == 0 || len(m.q.idx) == 0 {
		return
	}
	m.transpose(sc)
	pIdx, pVal, qIdx := m.p.idx, m.p.val, m.q.idx
	// Lengths tied to qIdx let the compiler drop the sweep's bounds checks.
	nq := len(qIdx)
	qVal, no, tq, off := m.q.val[:nq], sc.no[:nq], sc.tq[:nq], sc.off[:nq+1]
	ent, tp := sc.ent, sc.tp
	for iter := 0; iter < mlEMIters; iter++ {
		var sp, sq float64
		j := 0
		for k, r := range qIdx {
			qv := qVal[k]
			var t float64
			if qv > 0 {
				t = no[k]
			}
			if j < len(pIdx) && pIdx[j] == r {
				pv := pVal[j]
				var s float64
				for _, e := range ent[off[k]:off[k+1]] {
					den := e.a*pv + e.b*qv
					if den <= 0 {
						continue
					}
					// E-step: expected target-origin mass of the y deliveries.
					w := e.a * pv / den
					s += e.y * w
					t += e.y * (1 - w)
				}
				tp[j] = s
				sp += s
				j++
			}
			tq[k] = t
			sq += t
		}
		// M-step: renormalize both components.
		if sp > 0 {
			for i := range tp {
				pVal[i] = tp[i] / sp
			}
		}
		if sq > 0 {
			for i := range tq {
				qVal[i] = tq[i] / sq
			}
		}
	}
}

// transpose fills sc for one refresh: the CSR of the a > 0 entries by q
// slot (counted, prefix-summed, then filled group by group, so each
// slot's entries come out in ascending group order), the folded a = 0
// counts, and the M-step accumulators.
func (m *mlEstimator) transpose(sc *mlScratch) {
	nq := len(m.q.idx)
	// The slot map spans q's largest recipient, so it stays within the
	// recipient space. Only q's coordinates are ever read, and each is
	// overwritten here, so stale slots from a smaller support are inert.
	sc.qs = grow(sc.qs, int(m.q.idx[nq-1])+1)
	for k, r := range m.q.idx {
		sc.qs[r] = int32(k)
	}
	first := sort.Search(len(m.groups), func(i int) bool { return m.groups[i].a > 0 })
	withRounds := m.groups[first:]
	sc.off = grow(sc.off, nq+1)
	clear(sc.off)
	for gi := range withRounds {
		for _, r := range withRounds[gi].y.idx {
			sc.off[sc.qs[r]+1]++
		}
	}
	for k := 0; k < nq; k++ {
		sc.off[k+1] += sc.off[k]
	}
	sc.fill = grow(sc.fill, nq)
	copy(sc.fill, sc.off)
	sc.ent = grow(sc.ent, int(sc.off[nq]))
	for gi := range withRounds {
		g := &withRounds[gi]
		a, b := float64(g.a), float64(g.n-g.a)
		for k, r := range g.y.idx {
			s := sc.qs[r]
			sc.ent[sc.fill[s]] = mlEntry{a, b, g.y.val[k]}
			sc.fill[s]++
		}
	}
	// Every count is an integer-valued float64 below 2^53, so the
	// difference is exact and equals the ascending a = 0 sum.
	sc.no = grow(sc.no, nq)
	copy(sc.no, m.allCnt.val)
	for j, r := range m.withCnt.idx {
		sc.no[sc.qs[r]] -= m.withCnt.val[j]
	}
	sc.tp = grow(sc.tp, len(m.p.idx))
	sc.tq = grow(sc.tq, nq)
}

func (m *mlEstimator) support() []int32 { return m.p.idx }

func (m *mlEstimator) estimateAt(i int32) float64 { return m.p.get(i) }

// normalizeVec scales a non-negative sparse vector to unit sum in place
// (no-op on a zero vector).
func normalizeVec(v *sparseVec) {
	var total float64
	for _, x := range v.val {
		total += x
	}
	if total <= 0 {
		return
	}
	inv := 1 / total
	for i := range v.val {
		v.val[i] *= inv
	}
}

// grow returns s resized to n elements without preserving contents,
// at least doubling its capacity when it must reallocate, so a slice
// reused for ever larger requests reallocates O(log n) times.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}
