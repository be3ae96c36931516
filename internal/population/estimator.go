package population

import (
	"errors"
	"fmt"
	"math"
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
//     estimateAt and is idempotent between observes.
//   - support returns the ascending coordinate set containing every
//     strictly positive estimate; coordinates outside it evaluate to
//     exactly 0.
//   - snapshot/restore serialize the accumulators into the target's
//     slot of a disclosure checkpoint.
type estimator interface {
	observe(h *rcptHist, sent bool, cnt int)
	ready() bool
	support() []int32
	estimateAt(i int32) float64
	snapshot(ts *TargetEstimatorState)
	restore(ts *TargetEstimatorState, nrcpt int) error
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

func (c *classicEstimator) ready() bool {
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

func (c *classicEstimator) snapshot(ts *TargetEstimatorState) {
	ts.SumWith = SparseCounts{
		Idx: append([]int32(nil), c.sumWith.idx...),
		Val: append([]float64(nil), c.sumWith.val...),
	}
	ts.SumWithout = SparseCounts{
		Idx: append([]int32(nil), c.sumWithout.idx...),
		Val: append([]float64(nil), c.sumWithout.val...),
	}
	ts.NWith = c.nWith
	ts.NWithout = c.nWithout
}

func (c *classicEstimator) restore(ts *TargetEstimatorState, nrcpt int) error {
	if err := ts.SumWith.validate("sum_with", nrcpt); err != nil {
		return err
	}
	if err := ts.SumWithout.validate("sum_without", nrcpt); err != nil {
		return err
	}
	if ts.NWith < 0 || ts.NWithout < 0 {
		return errors.New("population: snapshot has negative round counts")
	}
	c.sumWith.setPairs(ts.SumWith.Idx, ts.SumWith.Val)
	c.sumWithout.setPairs(ts.SumWithout.Idx, ts.SumWithout.Val)
	c.nWith = ts.NWith
	c.nWithout = ts.NWithout
	return nil
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
	nWith         int
	nWithout      int
	inv           float64 // 1/det, refreshed by ready
}

func (l *lsEstimator) observe(h *rcptHist, sent bool, cnt int) {
	a := float64(cnt)
	b := float64(h.n - cnt)
	l.saa += a * a
	l.sab += a * b
	l.sbb += b * b
	if sent {
		l.nWith++
	} else {
		l.nWithout++
	}
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
func (l *lsEstimator) ready() bool {
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

func (l *lsEstimator) snapshot(ts *TargetEstimatorState) {
	ts.NWith = l.nWith
	ts.NWithout = l.nWithout
	ts.LS = &LSEstimatorState{
		Saa: l.saa,
		Sab: l.sab,
		Sbb: l.sbb,
		Say: SparseCounts{
			Idx: append([]int32(nil), l.say.idx...),
			Val: append([]float64(nil), l.say.val...),
		},
		Sby: SparseCounts{
			Idx: append([]int32(nil), l.sby.idx...),
			Val: append([]float64(nil), l.sby.val...),
		},
	}
}

func (l *lsEstimator) restore(ts *TargetEstimatorState, nrcpt int) error {
	if ts.LS == nil {
		return errors.New("population: snapshot target has no least-squares state")
	}
	if err := ts.LS.Say.validate("ls say", nrcpt); err != nil {
		return err
	}
	if err := ts.LS.Sby.validate("ls sby", nrcpt); err != nil {
		return err
	}
	if ts.LS.Saa < 0 || ts.LS.Sbb < 0 || ts.LS.Sab < 0 {
		return errors.New("population: snapshot least-squares moments must be non-negative")
	}
	if ts.NWith < 0 || ts.NWithout < 0 {
		return errors.New("population: snapshot has negative round counts")
	}
	l.saa, l.sab, l.sbb = ts.LS.Saa, ts.LS.Sab, ts.LS.Sbb
	l.say.setPairs(ts.LS.Say.Idx, ts.LS.Say.Val)
	l.sby.setPairs(ts.LS.Sby.Idx, ts.LS.Sby.Val)
	l.nWith = ts.NWith
	l.nWithout = ts.NWithout
	return nil
}

// mlEMIters is the fixed EM iteration budget per refresh. The estimate
// is recomputed from scratch at every dirty ready() call — never warm-
// started — so a resumed run's estimate is a pure function of the
// accumulated sufficient statistics, not of the checkpoint schedule.
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
// model. Memory is O(distinct (a, n) keys × observed support) plus two
// recipient-indexed slot maps bounded by the recipient space; the
// estimate p (and the background q it is jointly fitted with) is
// refreshed lazily at checkpoint boundaries.
//
// refresh does no searching. observe keeps q's and p's EM initializers
// as running counts (allCnt over every round, withCnt over the rounds
// the target sent in), and refresh resolves each recipient to its q and
// p slot once, into qs and ps, before the sweeps. The counts are
// integer-valued float64s, so their sums are exact in any order and
// equal, bit for bit, a sum over the groups.
type mlEstimator struct {
	groups   []mlGroup // ascending by (a, n)
	nWith    int
	nWithout int
	dirty    bool
	allCnt   sparseVec // Σy over all groups: q's EM initializer
	withCnt  sparseVec // Σy over groups with a > 0: p's EM initializer
	p        sparseVec // target estimate over the with-round support
	q        sparseVec // background estimate over the full support
	tp, tq   []float64 // M-step scratch aligned with p.idx / q.idx
	qs, ps   []int32   // recipient -> q / p slot (ps: -1 where p is absent)
}

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

func (m *mlEstimator) ready() bool {
	if m.nWith == 0 || m.nWithout == 0 {
		return false
	}
	if m.dirty {
		m.refresh()
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
// The initializers are the running counts observe keeps, and the
// E-step reads each entry's q and p slot from the slot maps, filled
// once here: p's and q's supports are fixed for the sweeps, and p's is
// a subset of q's. The sweeps visit groups and entries in ascending
// order, so every float operation matches a search-per-entry E-step
// (the oracle in estimator_ref_test.go) bit for bit.
func (m *mlEstimator) refresh() {
	m.p.setPairs(m.withCnt.idx, m.withCnt.val)
	m.q.setPairs(m.allCnt.idx, m.allCnt.val)
	normalizeVec(&m.p)
	normalizeVec(&m.q)
	if len(m.p.idx) == 0 || len(m.q.idx) == 0 {
		return
	}
	// The maps span q's largest recipient, so they stay within the
	// recipient space. Only q's coordinates are ever read, and each is
	// overwritten here, so stale slots from a smaller support are inert.
	span := int(m.q.idx[len(m.q.idx)-1]) + 1
	m.qs = resize(m.qs, span)
	m.ps = resize(m.ps, span)
	for k, r := range m.q.idx {
		m.qs[r] = int32(k)
		m.ps[r] = -1
	}
	for k, r := range m.p.idx {
		m.ps[r] = int32(k)
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
				qi, pi := m.qs[r], m.ps[r] // q spans the full support
				var pv float64
				if pi >= 0 {
					pv = m.p.val[pi]
				}
				den := a*pv + b*m.q.val[qi]
				if den <= 0 {
					continue
				}
				// E-step: expected target-origin mass of the y deliveries.
				w := a * pv / den
				if pi >= 0 {
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

func (m *mlEstimator) support() []int32 { return m.p.idx }

func (m *mlEstimator) estimateAt(i int32) float64 { return m.p.get(i) }

func (m *mlEstimator) snapshot(ts *TargetEstimatorState) {
	ts.NWith = m.nWith
	ts.NWithout = m.nWithout
	st := &MLEstimatorState{Groups: make([]MLGroupState, len(m.groups))}
	for gi := range m.groups {
		g := &m.groups[gi]
		st.Groups[gi] = MLGroupState{
			A: g.a,
			N: g.n,
			C: g.c,
			Y: SparseCounts{
				Idx: append([]int32(nil), g.y.idx...),
				Val: append([]float64(nil), g.y.val...),
			},
		}
	}
	ts.ML = st
}

func (m *mlEstimator) restore(ts *TargetEstimatorState, nrcpt int) error {
	if ts.ML == nil {
		return errors.New("population: snapshot target has no ML state")
	}
	if ts.NWith < 0 || ts.NWithout < 0 {
		return errors.New("population: snapshot has negative round counts")
	}
	// The groups must agree with themselves and with the round counts:
	// every round of a group delivers n messages, and the rounds the
	// target sent in are exactly those of the a > 0 groups. All the
	// quantities are counts, so the sums are exact.
	var with, all float64
	for gi := range ts.ML.Groups {
		gs := &ts.ML.Groups[gi]
		if gs.A < 0 || gs.N < 1 || gs.A > gs.N || gs.C < 1 || !isCount(gs.C) {
			return fmt.Errorf("population: snapshot ML group %d has invalid (a=%d, n=%d, c=%v)",
				gi, gs.A, gs.N, gs.C)
		}
		if gi > 0 {
			prev := &ts.ML.Groups[gi-1]
			if prev.A > gs.A || (prev.A == gs.A && prev.N >= gs.N) {
				return fmt.Errorf("population: snapshot ML groups not ascending at index %d", gi)
			}
		}
		if err := gs.Y.validate(fmt.Sprintf("ml group %d", gi), nrcpt); err != nil {
			return err
		}
		var sum float64
		for _, y := range gs.Y.Val {
			if !isCount(y) {
				return fmt.Errorf("population: snapshot ML group %d has delivery count %v", gi, y)
			}
			sum += y
		}
		if want := gs.C * float64(gs.N); sum != want {
			return fmt.Errorf("population: snapshot ML group %d (a=%d, n=%d) holds %v deliveries, want c·n = %v",
				gi, gs.A, gs.N, sum, want)
		}
		if gs.A > 0 {
			with += gs.C
		}
		all += gs.C
	}
	if with != float64(ts.NWith) {
		return fmt.Errorf("population: snapshot ML groups with a > 0 hold %v rounds, n_with is %d",
			with, ts.NWith)
	}
	if all != float64(ts.NWith+ts.NWithout) {
		return fmt.Errorf("population: snapshot ML groups hold %v rounds in all, n_with + n_without is %d",
			all, ts.NWith+ts.NWithout)
	}
	m.groups = m.groups[:0]
	m.allCnt = sparseVec{}
	m.withCnt = sparseVec{}
	for gi := range ts.ML.Groups {
		gs := &ts.ML.Groups[gi]
		g := mlGroup{a: gs.A, n: gs.N, c: gs.C}
		g.y.setPairs(gs.Y.Idx, gs.Y.Val)
		// Each group's y is ascending, so it folds like a round.
		m.allCnt.fold(g.y.idx, g.y.val, 1)
		if g.a > 0 {
			m.withCnt.fold(g.y.idx, g.y.val, 1)
		}
		m.groups = append(m.groups, g)
	}
	m.nWith = ts.NWith
	m.nWithout = ts.NWithout
	m.dirty = true
	return nil
}

// isCount reports whether x is a non-negative integer-valued float64 in
// the range where float64 sums of such values are exact.
func isCount(x float64) bool {
	return x >= 0 && x <= 1<<53 && x == math.Trunc(x)
}

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

// resize returns s resized to n elements without preserving contents.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
