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

// Pipeline is a reusable feature-extraction engine for one Extractor: the
// window buffer, the entropy histogram and the quantile scratch space are
// allocated once and reused, so steady-state extraction of a window
// performs no allocation. A Pipeline is not safe for concurrent use;
// create one per goroutine.
type Pipeline struct {
	ext  Extractor
	hist *stats.StreamHist // entropy feature only
	buf  []float64         // window buffer / quickselect scratch
}

// NewPipeline creates a pipeline for the extractor.
func NewPipeline(e Extractor) (*Pipeline, error) {
	p := &Pipeline{ext: e}
	if e.Feature == analytic.FeatureEntropy {
		h, err := stats.NewStreamHist(e.binWidth())
		if err != nil {
			return nil, err
		}
		p.hist = h
	}
	return p, nil
}

// ExtractFrom reads one window of n PIATs from src and reduces it in a
// single streaming pass: mean and variance through a one-pass accumulator
// and entropy through the reusable histogram, with the raw window
// buffered only when the feature (IQR) needs order statistics. PIATs are
// pulled a slab at a time when the source supports batching; the
// accumulators consume the slab in stream order, so the result is
// identical to the per-packet pull.
func (p *Pipeline) ExtractFrom(src PIATSource, n int) (float64, error) {
	if n < 2 {
		return 0, errors.New("adversary: window must hold at least two PIATs")
	}
	obs.Count(obs.AdvWindow, 1)
	switch p.ext.Feature {
	case analytic.FeatureMean, analytic.FeatureVariance:
		var m stats.Moments
		p.window(chunkLen(n))
		for done := 0; done < n; {
			k := min(len(p.buf), n-done)
			fillPIATs(src, p.buf[:k])
			m.AddAll(p.buf[:k])
			done += k
		}
		if p.ext.Feature == analytic.FeatureMean {
			return m.Mean(), nil
		}
		return m.Variance(), nil
	case analytic.FeatureEntropy:
		p.hist.Reset()
		p.window(chunkLen(n))
		for done := 0; done < n; {
			k := min(len(p.buf), n-done)
			fillPIATs(src, p.buf[:k])
			p.hist.AddAll(p.buf[:k])
			done += k
		}
		return p.hist.Entropy(), nil
	case analytic.FeatureIQR:
		p.window(n)
		for done := 0; done < n; {
			k := min(chunkLen(n), n-done)
			fillPIATs(src, p.buf[done:done+k])
			done += k
		}
		return p.iqrInPlace(n)
	default:
		return 0, fmt.Errorf("adversary: unknown feature %v", p.ext.Feature)
	}
}

// window sizes the reusable buffer to n.
func (p *Pipeline) window(n int) {
	if cap(p.buf) < n {
		p.buf = make([]float64, n)
	}
	p.buf = p.buf[:n]
}

// iqrInPlace computes Q3−Q1 of the buffered window with in-place
// quickselect; the buffer is permuted but its multiset is preserved, so
// the second selection stays correct.
func (p *Pipeline) iqrInPlace(n int) (float64, error) {
	q1, err := stats.QuantileInPlace(p.buf[:n], 0.25)
	if err != nil {
		return 0, err
	}
	q3, err := stats.QuantileInPlace(p.buf[:n], 0.75)
	if err != nil {
		return 0, err
	}
	return q3 - q1, nil
}

// MultiPipeline extracts several feature statistics from the same window
// in one streaming pass over the PIATs: the window is generated once and
// every extractor's accumulator consumes it simultaneously. This is the
// heart of the batched Monte Carlo attack pipeline — the padded-stream
// simulation dominates the attack cost, so multi-feature experiments
// must not regenerate the stream per feature.
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

// SourceFactory builds the independent PIAT source replica for one trial
// window. Giving every window its own deterministic source is what makes
// trial-level parallelism reproducible: the feature of window w depends
// only on w's seed, never on which worker ran it or in what order.
type SourceFactory func(window int) (PIATSource, error)

// FeatureMatrix draws `windows` independent windows of size n from the
// factory and reduces each one through every extractor in a single pass,
// on up to `workers` goroutines (values < 1 mean all CPUs). The result is
// indexed [extractor][window] and is identical for any worker count.
func FeatureMatrix(factory SourceFactory, exts []Extractor, windows, n, workers int) ([][]float64, error) {
	if windows <= 0 || n < 2 {
		return nil, errors.New("adversary: need windows > 0 and n >= 2")
	}
	workers = par.Workers(workers)
	if workers > windows {
		workers = windows
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
	mat := make([][]float64, len(exts))
	flat := make([]float64, len(exts)*windows)
	for i := range mat {
		mat[i] = flat[i*windows : (i+1)*windows : (i+1)*windows]
	}
	err := par.MapWorker(windows, workers, func(worker, w int) error {
		src, err := factory(w)
		if err != nil {
			return err
		}
		out := outs[worker]
		if err := pipes[worker].ExtractFrom(src, n, out); err != nil {
			return err
		}
		for i := range exts {
			mat[i][w] = out[i]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mat, nil
}
