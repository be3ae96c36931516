package experiment

import (
	"linkpad/internal/core"
	"linkpad/internal/population"
)

func init() {
	registerCells("scale-disclosure", scaleDisclosureCells)
}

// scaleUsers resolves the population size for the scale experiment:
// one million users at -scale 1, linear in the scale knob with a floor
// that keeps the engine's sharded paths (multiple shards, lazy
// instantiation, streaming merge) exercised even at smoke scale.
func scaleUsers(o Options) int {
	n := int(1e6 * o.Scale)
	if n < 10_000 {
		n = 10_000
	}
	return n
}

// scaleDisclosureCovers is the sweep axis: the same rounds pushed
// through a bare population and through one where every user adds cover
// at its payload rate, so the cell pair prices cover traffic at scale.
var scaleDisclosureCovers = []float64{0, 1}

// Fixed observation budget for the scale cells. -scale moves the
// population size, not the budget: the experiment measures engine
// throughput and memory at N, so the per-cell work must stay N-linear
// (generation + merge) plus a constant round budget, not N×rounds.
const (
	scaleDisclosureRounds = 64
	scaleDisclosureBatch  = 1024
)

// scaleDisclosureCells drives the population engine at its design
// point: a million lazily materialized users (at -scale 1) behind one
// batching mix, with the statistical disclosure adversary attached.
// The scientific content is a negative result the analysis predicts:
// at N=1e6 a target lands in a B=1024 batch about once per thousand
// rounds, so a 64-round budget gives the SDA estimator no signal and
// disclosed_frac is 0 with near-uniform anonymity — population size
// alone is a countermeasure on these timescales. What the cells gate
// is the engine: the run must complete in seconds with resident memory
// dominated by the compact per-user frontier plus the few users that
// actually sent, and the table must be byte-identical at any worker
// width (the scale-smoke CI job diffs -workers 1 against -workers 4).
// Registered as a cell experiment, so -checkpoint/-checkpoint-kill
// cover the sharded engine state at scale too.
var scaleDisclosureCells = &cellExperiment{
	title: "Population engine at scale: million-user statistical disclosure rounds",
	columns: []string{"users", "cover", "rounds", "batch",
		"disclosed_frac", "mean_anonymity"},
	ncells: func(Options) int { return len(scaleDisclosureCovers) },
	run: func(o Options, cell int) ([]float64, error) {
		sys, err := core.NewSystem(labConfig(o))
		if err != nil {
			return nil, err
		}
		n := scaleUsers(o)
		cover := scaleDisclosureCovers[cell]
		res, err := runDisclosure(o, sys, core.PopulationSpec{
			Users:      n,
			Recipients: 10_000,
			CoverRate:  cover,
		}, population.DisclosureConfig{
			Batch:      scaleDisclosureBatch,
			MaxRounds:  scaleDisclosureRounds,
			CheckEvery: 16,
		})
		if err != nil {
			return nil, err
		}
		return []float64{float64(n), cover, float64(res.Rounds),
			scaleDisclosureBatch, res.DisclosedFrac, res.MeanAnonymity}, nil
	},
	notes: func(o Options, t *Table) {
		t.Notef("population %d users (1e6 x scale, floor 1e4), 10000 recipients, batch %d, %d rounds",
			scaleUsers(o), scaleDisclosureBatch, scaleDisclosureRounds)
		t.Notef("cover = dummy rate as a multiple of the user's payload rate; dummies go to uniform recipients")
		t.Notef("at this batch/budget the SDA has no per-target signal at large N: disclosed_frac 0 and")
		t.Notef("near-uniform anonymity are the expected reading; the cells gate engine throughput and memory")
	},
}
