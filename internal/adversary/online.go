package adversary

import (
	"errors"

	"linkpad/internal/par"
)

// OnlineExtractor is the adversary's run-time view of one continuous
// padded stream (the paper's actual observation protocol): it slices the
// PIAT sequence into consecutive windows of n and reduces each window
// through the allocation-free MultiPipeline as it arrives. Unlike the
// i.i.d.-replica protocol (FeatureMatrix), consecutive windows share the
// stream's carried state — queue occupancy, timer phase, burst phase,
// diurnal position — so their features are drawn from the true joint
// process, not from independent cold-started copies.
//
// An OnlineExtractor is not safe for concurrent use; sessions parallelize
// across streams, never within one (windows of one stream are inherently
// sequential).
type OnlineExtractor struct {
	src PIATSource
	mp  *MultiPipeline
	n   int
}

// NewOnlineExtractorShared wraps a continuous PIAT stream for windowed
// extraction of size n with a caller-owned pipeline, so a worker
// evaluating many sessions in turn reuses one pipeline's scratch buffers
// across them (the session engine's hot path). The pipeline must not be
// shared across concurrent extractors.
func NewOnlineExtractorShared(mp *MultiPipeline, src PIATSource, n int) (*OnlineExtractor, error) {
	if src == nil {
		return nil, errors.New("adversary: nil PIAT source")
	}
	if mp == nil {
		return nil, errors.New("adversary: nil pipeline")
	}
	if n < 2 {
		return nil, errors.New("adversary: window must hold at least two PIATs")
	}
	return &OnlineExtractor{src: src, mp: mp, n: n}, nil
}

// NextWindow consumes the next n PIATs of the stream and writes each
// extractor's statistic to out[i]. Steady state allocates nothing.
func (o *OnlineExtractor) NextWindow(out []float64) error {
	return o.mp.ExtractFrom(o.src, o.n, out)
}

// SessionFactory builds the continuous PIAT stream for one session index:
// a fresh, deterministic realization of the system, already warmed past
// its transient if the protocol calls for warm-up. Giving every session
// its own seeded stream is what makes session-level parallelism
// reproducible — a session's windows depend only on its index, never on
// worker scheduling.
type SessionFactory func(session int) (PIATSource, error)

// SessionFeatureMatrix is the continuous-stream analogue of
// FeatureMatrix: it draws windowsPerSession *consecutive* windows of size
// n from each of `sessions` continuous streams and reduces every window
// through every extractor in one streaming pass. Sessions run on up to
// `workers` goroutines (values < 1 mean all CPUs); windows within a
// session stay sequential because they share carried stream state. The
// result is indexed [extractor][session*windowsPerSession + window] and
// is identical for any worker count.
func SessionFeatureMatrix(factory SessionFactory, exts []Extractor, sessions, windowsPerSession, n, workers int) ([][]float64, error) {
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
