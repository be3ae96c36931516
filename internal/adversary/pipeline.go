package adversary

import (
	"errors"
	"fmt"

	"linkpad/internal/analytic"
	"linkpad/internal/obs"
	"linkpad/internal/par"
	"linkpad/internal/slab"
	"linkpad/internal/stats"
)

// batchPIATSource is the structural face of the batched event core as
// the adversary sees it: any PIAT source whose NextBatch(dst) is
// equivalent to len(dst) Next calls (netem.BatchStream implementers
// qualify; the interface is asserted structurally so this package needs
// no netem dependency). The extraction pipelines use it to pull whole
// slabs of PIATs per virtual call instead of one.
type batchPIATSource interface {
	NextBatch(dst []float64)
}

// fillPIATs fills dst from src through the batched path when available.
func fillPIATs(src PIATSource, dst []float64) {
	if b, ok := src.(batchPIATSource); ok {
		b.NextBatch(dst)
	} else {
		for i := range dst {
			dst[i] = src.Next()
		}
	}
	if obs.Enabled() {
		// Slab boundaries are where chain telemetry becomes visible: the
		// chain's tail element (netem.Differ) carries the shard and
		// drains it here, once per pulled slab.
		obs.Count(obs.AdvSlab, 1)
		if f, ok := src.(obs.Flusher); ok {
			f.FlushObs()
		}
	}
}

// chunkLen bounds one extraction batch: full slabs amortize the chain's
// per-call overhead, and capping at the slab size bounds the temporary
// buffers of variable-rate chain elements.
func chunkLen(n int) int {
	return min(n, slab.DefaultLen)
}

// MultiPipeline extracts one or several feature statistics from the same
// window in one streaming pass over the PIATs: the window is generated
// once and every extractor's accumulator consumes it simultaneously. This
// is the heart of the batched Monte Carlo attack pipeline — the
// padded-stream simulation dominates the attack cost, so multi-feature
// experiments must not regenerate the stream per feature. The window
// buffer and histograms are allocated once and reused, and consecutive
// ExtractFrom calls on one source read consecutive windows of it. A
// MultiPipeline is not safe for concurrent use; create one per goroutine.
type MultiPipeline struct {
	exts    []Extractor
	hists   []*stats.StreamHist // parallel to exts; nil unless entropy
	buf     []float64           // raw window, kept only when some feature needs order statistics
	moments bool                // some feature needs the one-pass moments
	needBuf bool
}

// NewMultiPipeline creates a pipeline for the extractor set.
func NewMultiPipeline(exts []Extractor) (*MultiPipeline, error) {
	if len(exts) == 0 {
		return nil, errors.New("adversary: empty extractor set")
	}
	m := &MultiPipeline{
		exts:  append([]Extractor(nil), exts...),
		hists: make([]*stats.StreamHist, len(exts)),
	}
	for i, e := range exts {
		switch e.Feature {
		case analytic.FeatureMean, analytic.FeatureVariance:
			m.moments = true
		case analytic.FeatureEntropy:
			h, err := stats.NewStreamHist(e.binWidth())
			if err != nil {
				return nil, err
			}
			m.hists[i] = h
		case analytic.FeatureIQR:
			m.needBuf = true
		default:
			return nil, fmt.Errorf("adversary: unknown feature %v", e.Feature)
		}
	}
	return m, nil
}

// ExtractFrom reads one window of n PIATs from src and writes each
// extractor's statistic to out[i]. Steady state performs no allocation.
// The window is pulled a slab at a time when the source supports
// batching; every accumulator consumes the slabs in stream order, so the
// statistics are identical to the per-packet pull.
func (m *MultiPipeline) ExtractFrom(src PIATSource, n int, out []float64) error {
	if n < 2 {
		return errors.New("adversary: window must hold at least two PIATs")
	}
	obs.Count(obs.AdvWindow, 1)
	if len(out) < len(m.exts) {
		return errors.New("adversary: output slice shorter than extractor set")
	}
	var mom stats.Moments
	for _, h := range m.hists {
		if h != nil {
			h.Reset()
		}
	}
	// The buffer doubles as the batch scratch: full window when order
	// statistics need it, one slab otherwise.
	bufLen := chunkLen(n)
	if m.needBuf {
		bufLen = n
	}
	if cap(m.buf) < bufLen {
		m.buf = make([]float64, bufLen)
	}
	for done := 0; done < n; {
		k := min(chunkLen(n), n-done)
		chunk := m.buf[:k]
		if m.needBuf {
			chunk = m.buf[done : done+k]
		}
		fillPIATs(src, chunk)
		if m.moments {
			mom.AddAll(chunk)
		}
		for _, h := range m.hists {
			if h != nil {
				h.AddAll(chunk)
			}
		}
		done += k
	}
	for i, e := range m.exts {
		switch e.Feature {
		case analytic.FeatureMean:
			out[i] = mom.Mean()
		case analytic.FeatureVariance:
			out[i] = mom.Variance()
		case analytic.FeatureEntropy:
			out[i] = m.hists[i].Entropy()
		case analytic.FeatureIQR:
			// Order statistics need the raw window; quickselect permutes
			// the scratch but later IQR extractors only need the multiset.
			q1, err := stats.QuantileInPlace(m.buf[:n], 0.25)
			if err != nil {
				return err
			}
			q3, err := stats.QuantileInPlace(m.buf[:n], 0.75)
			if err != nil {
				return err
			}
			out[i] = q3 - q1
		}
	}
	return nil
}

// SourceFactory builds the PIAT source of one replica or session index:
// a fresh, deterministic realization of the system, already warmed past
// its transient if the protocol calls for warm-up. Giving every index its
// own seeded source is what makes parallel extraction reproducible — the
// features of index i depend only on i, never on which worker ran it or
// in what order.
type SourceFactory func(i int) (PIATSource, error)

// FeatureMatrix is the independent-replica protocol: window w is the
// first window of size n of its own source, so it is SessionFeatureMatrix
// with one window per session. The result is indexed [extractor][window]
// and is identical for any worker count (values < 1 mean all CPUs).
func FeatureMatrix(factory SourceFactory, exts []Extractor, windows, n, workers int) ([][]float64, error) {
	return SessionFeatureMatrix(factory, exts, windows, 1, n, workers)
}

// SessionFeatureMatrix draws windowsPerSession *consecutive* windows of
// size n from each of `sessions` continuous streams (the paper's
// observation protocol) and reduces every window through every extractor
// in one streaming pass. Sessions run on up to `workers` goroutines
// (values < 1 mean all CPUs), one reusable MultiPipeline each; windows
// within a session stay sequential because they share carried stream
// state. The result is indexed
// [extractor][session*windowsPerSession + window] and is identical for
// any worker count.
func SessionFeatureMatrix(factory SourceFactory, exts []Extractor, sessions, windowsPerSession, n, workers int) ([][]float64, error) {
	if sessions <= 0 || windowsPerSession <= 0 || n < 2 {
		return nil, errors.New("adversary: need sessions > 0, windowsPerSession > 0 and n >= 2")
	}
	workers = par.Workers(workers)
	if workers > sessions {
		workers = sessions
	}
	pipes := make([]*MultiPipeline, workers)
	outs := make([][]float64, workers)
	for i := range pipes {
		mp, err := NewMultiPipeline(exts)
		if err != nil {
			return nil, err
		}
		pipes[i] = mp
		outs[i] = make([]float64, len(exts))
	}
	total := sessions * windowsPerSession
	mat := make([][]float64, len(exts))
	flat := make([]float64, len(exts)*total)
	for i := range mat {
		mat[i] = flat[i*total : (i+1)*total : (i+1)*total]
	}
	err := par.MapWorker(sessions, workers, func(worker, s int) error {
		src, err := factory(s)
		if err != nil {
			return err
		}
		out := outs[worker]
		for w := 0; w < windowsPerSession; w++ {
			if err := pipes[worker].ExtractFrom(src, n, out); err != nil {
				return err
			}
			for i := range exts {
				mat[i][s*windowsPerSession+w] = out[i]
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mat, nil
}
