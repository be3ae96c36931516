package population

import "slices"

// sparseVec is a sorted-coordinate sparse vector over a recipient space:
// parallel (index, value) slices with idx strictly ascending. The SDA
// estimators accumulate into these instead of dense length-R arrays, so
// a million-recipient space costs each accumulator only its support: the
// recipients actually delivered in observed rounds.
//
// All values are exact: the estimator entries are event counts (integer-
// valued float64s, exact below 2^53), so sparse accumulation is not an
// approximation — every read agrees bit-for-bit with the dense array it
// replaces, with absent coordinates reading as exactly 0.
type sparseVec struct {
	idx []int32
	val []float64
}

// find locates index i: its position and whether it is present; when
// absent, the position is the insertion point keeping idx sorted.
func (v *sparseVec) find(i int32) (int, bool) {
	return slices.BinarySearch(v.idx, i)
}

// get reads coordinate i (0 when absent).
func (v *sparseVec) get(i int32) float64 {
	if p, ok := v.find(i); ok {
		return v.val[p]
	}
	return 0
}

// fold adds scale·cnt[k] into coordinate idx[k] for every k, inserting
// the absent coordinates; idx must be strictly ascending (a rcptHist).
// A forward pass updates the present coordinates in place, each found
// by a galloping search from where the previous one ended (seek); one
// backward merge then opens the gaps for the absent ones, moving every
// old coordinate at most once. A round therefore costs O(log gap) per
// distinct recipient plus at most one shift of the support, and nothing
// moves once the support has saturated. Every value is an integer-valued
// float64 below 2^53, so adding scale·c once equals adding scale c
// times, bit for bit.
func (v *sparseVec) fold(idx []int32, cnt []float64, scale float64) {
	fresh, p := 0, 0
	for k, i := range idx {
		p = v.seek(p, i)
		if p < len(v.idx) && v.idx[p] == i {
			v.val[p] += scale * cnt[k]
		} else {
			fresh++
		}
	}
	if fresh == 0 {
		return
	}
	// Backward merge: v.idx[:r+1] are the old coordinates not yet moved,
	// v.idx[w+1:] is final; it is done when no insert remains (w == r).
	r := len(v.idx) - 1
	w := r + fresh
	v.idx = slices.Grow(v.idx, fresh)[:w+1]
	v.val = slices.Grow(v.val, fresh)[:w+1]
	for k := len(idx) - 1; w > r; k-- {
		i := idx[k]
		for r >= 0 && v.idx[r] > i {
			v.idx[w], v.val[w] = v.idx[r], v.val[r]
			r--
			w--
		}
		if r >= 0 && v.idx[r] == i {
			continue // present: the forward pass already added it
		}
		v.idx[w], v.val[w] = i, scale*cnt[k]
		w--
	}
}

// seek returns the first position at or after p whose coordinate is at
// least i. It gallops — strides 1, 2, 4, … from p — and then bisects the
// last stride, so a run of ascending lookups costs O(log gap) each
// rather than O(log support).
func (v *sparseVec) seek(p int, i int32) int {
	hi, step := p, 1
	for hi < len(v.idx) && v.idx[hi] < i {
		p = hi + 1
		hi += step
		step *= 2
	}
	hi = min(hi, len(v.idx))
	q, _ := slices.BinarySearch(v.idx[p:hi], i)
	return p + q
}

// setPairs replaces the vector's contents with the given coordinate
// pairs (already validated: equal lengths, idx strictly ascending).
func (v *sparseVec) setPairs(idx []int32, val []float64) {
	v.idx = append(v.idx[:0], idx...)
	v.val = append(v.val[:0], val...)
}

// rcptHist is one round's recipients as an ascending histogram: idx
// strictly ascending, cnt[k] the deliveries to idx[k], n the round's
// message count. disclosure.observe builds it once per round, and every
// target's estimator folds it into its accumulators (sparseVec.fold).
type rcptHist struct {
	idx []int32
	cnt []float64
	n   int
	srt []int32 // sorting scratch
}

// build replaces the histogram with the recipients of one round,
// reusing its buffers.
func (h *rcptHist) build(rcpts []int32) {
	h.n = len(rcpts)
	h.srt = append(h.srt[:0], rcpts...)
	slices.Sort(h.srt)
	h.idx, h.cnt = h.idx[:0], h.cnt[:0]
	for _, r := range h.srt {
		if k := len(h.idx) - 1; k >= 0 && h.idx[k] == r {
			h.cnt[k]++
		} else {
			h.idx = append(h.idx, r)
			h.cnt = append(h.cnt, 1)
		}
	}
}
