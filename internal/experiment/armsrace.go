package experiment

import (
	"linkpad/internal/core"
	"linkpad/internal/population"
)

func init() {
	registerCells("ext-sda-arms-race", extSDAArmsRaceCells)
	registerCells("scale-sda-ls", scaleSDALSCells)
}

// The ext-sda-arms-race axes; cell i is
// (estimator i/9, mix (i/3)%3, dummies i%3).
var (
	armsRaceEstimators = []population.EstimatorKind{
		population.EstimatorClassic,
		population.EstimatorLeastSquares,
		population.EstimatorML,
	}
	armsRaceMixes = []population.MixKind{
		population.MixThreshold,
		population.MixPool,
		population.MixTimed,
	}
	armsRaceDummies = []population.DummyPolicy{
		population.DummyNone,
		population.DummyUniform,
		population.DummyAdaptive,
	}
)

// armsRaceCover is the dummy policies' cover rate (as a multiple of the
// payload rate): enough for the adaptive policy to keep decoys
// competitive, low enough that uniform cover alone does not censor the
// whole budget (the uniform-vs-adaptive gap is the point of the table).
const armsRaceCover = 1.0

// armsRaceBatch is the round size for every cell. It is deliberately
// large relative to the 24-user population (~2 messages per target per
// round): with multiple target messages per round the send *count*
// carries real signal beyond bare presence, which is the regime where
// the least-squares estimator genuinely dominates the classic
// round-contrast one. At small batches a target appears 0-or-1 times
// per round and least-squares degenerates to classic plus fit noise.
const armsRaceBatch = 48

// extSDAArmsRaceCells is the SDA arms race league table: every
// estimator (classic round-contrast, least-squares, iterative ML)
// against every mix discipline (threshold, pool, timed) against every
// dummy policy (none, uniform receiver-bound, adaptive
// suspect-targeting), 27 cells of rounds-to-disclosure. The expected
// reading is monotone on both fronts: least-squares discloses no
// slower than the classic estimator in every mix cell (it regresses on
// send counts and the joint background fit instead of bare presence,
// and at batch 48 counts carry real signal), and the dummy policies
// resist in the order none < uniform < adaptive — adaptive feeds the
// estimator's own top suspects back at it, so the top-k set never
// stabilizes on the truth and the cell censors at the budget. ML is
// the calibration point rather than a speed point: it spends rounds to
// buy much sharper anonymity estimates (mean_anonymity well above the
// other two), and is not asserted to beat classic cell-by-cell.
// Registered as a cell experiment: every cell is a pure function of
// (Options, cell), so linkpadsim can checkpoint and resume the sweep.
var extSDAArmsRaceCells = &cellExperiment{
	title: "The SDA arms race: estimator vs mix vs dummy policy, rounds-to-disclosure",
	columns: []string{"estimator", "mix", "dummies", "disclosed_frac",
		"mean_rounds", "mean_anonymity"},
	ncells: func(Options) int {
		return len(armsRaceEstimators) * len(armsRaceMixes) * len(armsRaceDummies)
	},
	run: func(o Options, cell int) ([]float64, error) {
		sys, err := core.NewSystem(labConfig(o))
		if err != nil {
			return nil, err
		}
		est := armsRaceEstimators[cell/9]
		mix := armsRaceMixes[(cell/3)%3]
		dum := armsRaceDummies[cell%3]
		spec := core.PopulationSpec{
			Users:      24,
			Recipients: 60,
			Dummies:    dum,
		}
		if dum != population.DummyNone {
			spec.CoverRate = armsRaceCover
		}
		res, err := runDisclosure(o, sys, spec, population.DisclosureConfig{
			Batch:     armsRaceBatch,
			Mix:       population.MixSpec{Kind: mix},
			Estimator: est,
			MaxRounds: disclosureRounds(o),
		})
		if err != nil {
			return nil, err
		}
		return []float64{float64(est), float64(mix), float64(dum),
			res.DisclosedFrac, res.MeanRounds, res.MeanAnonymity}, nil
	},
	notes: func(o Options, t *Table) {
		t.Notef("estimator 0 = classic round-contrast, 1 = least-squares, 2 = iterative ML (EM)")
		t.Notef("mix 0 = threshold (flush at batch %d), 1 = pool (batch-%d trigger, retain 0.5), 2 = timed (period = batch/aggregate rate)", armsRaceBatch, armsRaceBatch)
		t.Notef("dummies 0 = none (no cover), 1 = uniform receiver-bound cover at %gx payload, 2 = adaptive cover re-addressed to the estimator's top suspects", armsRaceCover)
		t.Notef("24 users, 60 recipients, 3 contacts/user at weight 0.7, 8 targets; budget %d rounds censors mean_rounds", disclosureRounds(o))
		t.Notef("asserted monotonicity: least-squares discloses no slower than classic in every mix cell; resistance orders none < uniform < adaptive")
	},
}

// scaleSDALSCells proves the least-squares estimator at the engine's
// design point: the same million-user population, batch and round
// budget as scale-disclosure, but with the sparse least-squares
// accumulators in place of the classic conditional means. The estimator
// adds two sparse right-hand-side vectors per target — Say touches only
// the rounds the target actually exits in (~1/1000 of rounds at B=1024,
// N=1e6), Sby costs what the classic without-sum did — so resident
// memory stays frontier-dominated and the cells must fit the same RSS
// ceiling scale-disclosure gates in CI (make scale-smoke runs both).
// Like scale-disclosure, disclosed_frac 0 at scale is the expected
// (negative) reading; the cells gate throughput and memory.
var scaleSDALSCells = scaleCells(
	"Least-squares SDA at scale: million-user populations under the sparse LS accumulators",
	population.EstimatorLeastSquares, ", least-squares estimator",
	"same geometry as scale-disclosure: the pair prices the LS accumulators (Saa/Sab/Sbb + sparse Say/Sby) at scale",
	"disclosed_frac 0 at large N is the expected reading; the cells gate engine+estimator throughput and memory")
