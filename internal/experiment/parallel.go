package experiment

import "linkpad/internal/par"

// workers resolves the Options worker count: zero means every available
// CPU (GOMAXPROCS), with no artificial ceiling — sweep points are
// CPU-bound and scale with the hardware. Results are identical at any
// width; see par.Map.
func (o Options) workers() int {
	return par.Workers(o.Workers)
}

// nestedWorkers splits the worker budget between a sweep over `points`
// and the trial parallelism inside each point, so the total number of
// CPU-bound goroutines stays at the requested width instead of
// points × width. Short sweeps (fewer points than workers) get the
// surplus back as trial workers; wide sweeps run their points with one
// trial worker each. Purely a scheduling decision — results are
// identical either way.
func (o Options) nestedWorkers(points int) int {
	w := o.workers()
	outer := w
	if points < outer {
		outer = points
	}
	if outer <= 1 {
		return w
	}
	inner := w / outer
	if inner < 1 {
		inner = 1
	}
	return inner
}
