package adversary

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"linkpad/internal/bayes"
)

// Flow matching shared by the three correlation attacks — the
// population flow-correlation attack, the cascade end-to-end attack and
// the active watermark detector. ExitClasses reduces an exit flow's
// first window of PIATs to clamped class log posteriors; given the
// attack's n×n score matrix over (ingress identity, egress flow) pairs,
// GreedyMatch resolves a one-to-one assignment, and SummarizeMatch and
// MeanAnonymity report how well the scores identify each flow. Scores
// are arbitrary real numbers (higher = more likely pair); the resolution
// is greedy — highest score first — with a deterministic tie-break on
// (identity, flow) order, so results are reproducible bit for bit.

// PostFloor bounds one class's log posterior from below when the
// matching attacks combine per-feature posteriors, so a single
// out-of-support feature value cannot veto a pairing outright (the same
// robustification bayes.Sequential applies to anytime decisions).
const PostFloor = 8.0

// AddClampedLogPosts accumulates the per-class log posteriors lp into
// dst, clamping each entry below at -PostFloor. dst and lp must have
// equal length.
func AddClampedLogPosts(dst, lp []float64) {
	for c := range dst {
		v := lp[c]
		if v < -PostFloor {
			v = -PostFloor
		}
		dst[c] += v
	}
}

// ExitClasses reduces exit flows to clamped class log posteriors, with
// one feature pipeline and one scratch set per worker so flows reduce in
// parallel without sharing state.
type ExitClasses struct {
	cls    []*bayes.Classifier
	window int
	work   []exitScratch // one per worker; nil without classifiers
}

type exitScratch struct {
	pipe  *MultiPipeline
	out   []float64 // one feature value per extractor
	piats []float64 // the window's PIATs
	lp    []float64 // one classifier's log posteriors
}

// NewExitClasses builds the reducer for `workers` parallel workers. The
// extractors must parallel the naive-Bayes combined classifiers, and
// window, the PIAT count reduced per flow, must be at least 2 and match
// the window the classifiers were trained at. With no classifiers every
// flow's posteriors are nil.
func NewExitClasses(cls []*bayes.Classifier, exts []Extractor, window, workers int) (*ExitClasses, error) {
	if len(cls) != len(exts) {
		return nil, errors.New("adversary: classifiers and extractors must parallel each other")
	}
	if window < 2 {
		return nil, errors.New("adversary: feature window must be at least 2")
	}
	x := &ExitClasses{cls: cls, window: window}
	if len(cls) == 0 {
		return x, nil
	}
	x.work = make([]exitScratch, workers)
	for i := range x.work {
		mp, err := NewMultiPipeline(exts)
		if err != nil {
			return nil, err
		}
		x.work[i] = exitScratch{pipe: mp, out: make([]float64, len(exts)), piats: make([]float64, window)}
	}
	return x, nil
}

// LogPosts reduces the first window of PIATs of the ascending exit times
// to one value per feature on worker's scratch, then to the flow's class
// log posteriors, each classifier's clamped by AddClampedLogPosts and
// summed in classifier order. It returns a fresh slice, or nil without
// classifiers.
func (x *ExitClasses) LogPosts(worker int, exit []float64) ([]float64, error) {
	if len(x.cls) == 0 {
		return nil, nil
	}
	if len(exit) < x.window+1 {
		return nil, fmt.Errorf("adversary: %d exit packets, need %d for the feature window", len(exit), x.window+1)
	}
	w := &x.work[worker]
	for i := range w.piats {
		w.piats[i] = exit[i+1] - exit[i]
	}
	if err := w.pipe.ExtractFrom(NewReplay(w.piats), x.window, w.out); err != nil {
		return nil, err
	}
	post := make([]float64, x.cls[0].NumClasses())
	for fi, c := range x.cls {
		w.lp = c.LogPosteriorsInto(w.out[fi], w.lp)
		AddClampedLogPosts(post, w.lp)
	}
	return post, nil
}

// MatchSummary reports how well an n×n score matrix identifies flows.
type MatchSummary struct {
	// Accuracy is the fraction of flows GreedyMatch assigns to their
	// true identity.
	Accuracy float64
	// MeanRank averages each flow's TrueRank.
	MeanRank float64
	// ClassAccuracy is the fraction of flows whose highest class log
	// posterior is their true class (0 when no flow has posteriors).
	ClassAccuracy float64
}

// SummarizeMatch matches score greedily and reduces the outcome in flow
// order. Flow f's true identity is identity f; posts[f] holds its class
// log posteriors (nil without classifiers) and classes[f] its true class.
func SummarizeMatch(score []float64, n int, posts [][]float64, classes []int) (MatchSummary, error) {
	assignedF, err := GreedyMatch(score, n) // flow -> identity
	if err != nil {
		return MatchSummary{}, err
	}
	correct, classCorrect := 0, 0
	var rankSum float64
	for f := 0; f < n; f++ {
		if assignedF[f] == f {
			correct++
		}
		rankSum += float64(TrueRank(score, n, f))
		if posts[f] == nil {
			continue
		}
		lp := posts[f]
		best := 0
		for c := 1; c < len(lp); c++ {
			if lp[c] > lp[best] {
				best = c
			}
		}
		if best == classes[f] {
			classCorrect++
		}
	}
	return MatchSummary{
		Accuracy:      float64(correct) / float64(n),
		MeanRank:      rankSum / float64(n),
		ClassAccuracy: float64(classCorrect) / float64(n),
	}, nil
}

// MeanAnonymity averages the degree of anonymity over the n flows of an
// n×n score matrix: the normalized entropy of the softmax over each
// flow's score column (1 = uniform over all identities, 0 = identified).
func MeanAnonymity(score []float64, n int) float64 {
	tmp := make([]float64, n)
	var sum float64
	for f := 0; f < n; f++ {
		sum += columnAnonymity(score, n, f, tmp)
	}
	return sum / float64(n)
}

// columnAnonymity returns the normalized entropy of the softmax over
// flow f's score column. tmp must have length n.
func columnAnonymity(score []float64, n, f int, tmp []float64) float64 {
	max := math.Inf(-1)
	for u := 0; u < n; u++ {
		if s := score[u*n+f]; s > max {
			max = s
		}
	}
	var sum float64
	for u := 0; u < n; u++ {
		tmp[u] = math.Exp(score[u*n+f] - max)
		sum += tmp[u]
	}
	var h float64
	for u := 0; u < n; u++ {
		p := tmp[u] / sum
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h / math.Log(float64(n))
}

// GreedyMatch assigns each of the n egress flows to one of the n
// ingress identities by descending score[u*n+f], returning flow → user.
// Every flow is assigned exactly one user and vice versa.
func GreedyMatch(score []float64, n int) ([]int, error) {
	if n < 1 || len(score) != n*n {
		return nil, errors.New("adversary: GreedyMatch needs an n×n score matrix")
	}
	type pair struct{ u, f int }
	pairs := make([]pair, 0, n*n)
	for u := 0; u < n; u++ {
		for f := 0; f < n; f++ {
			pairs = append(pairs, pair{u, f})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		si, sj := score[pairs[i].u*n+pairs[i].f], score[pairs[j].u*n+pairs[j].f]
		if si != sj {
			return si > sj
		}
		if pairs[i].u != pairs[j].u {
			return pairs[i].u < pairs[j].u
		}
		return pairs[i].f < pairs[j].f
	})
	assignedU := make([]bool, n)
	assignedF := make([]int, n) // flow -> user
	for i := range assignedF {
		assignedF[i] = -1
	}
	matched := 0
	for _, p := range pairs {
		if matched == n {
			break
		}
		if assignedU[p.u] || assignedF[p.f] >= 0 {
			continue
		}
		assignedU[p.u] = true
		assignedF[p.f] = p.u
		matched++
	}
	return assignedF, nil
}

// TrueRank returns the rank (1 = best) of the true identity in flow f's
// score column, under the same deterministic tie-break GreedyMatch uses:
// flow f's true ingress identity is identity f.
func TrueRank(score []float64, n, f int) int {
	trueScore := score[f*n+f]
	rank := 1
	for u := 0; u < n; u++ {
		if u == f {
			continue
		}
		s := score[u*n+f]
		if s > trueScore || (s == trueScore && u < f) {
			rank++
		}
	}
	return rank
}
