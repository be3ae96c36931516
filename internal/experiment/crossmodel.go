package experiment

import (
	"fmt"

	"linkpad/internal/adversary"
	"linkpad/internal/bayes"
	"linkpad/internal/core"
	"linkpad/internal/netem"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

func init() {
	registerCells("ablation-crossmodel", ablationCrossModelCells)
}

// The ablation-crossmodel operating point: the Fig. 6 link at one
// utilization.
const (
	crossModelUtil = 0.3
	crossModelSvc  = 16e-6 // 200 B on 100 Mbit/s, as in fig6
)

// crossModelSource assembles gateway → exact router with the chosen
// cross model → PIAT stream, one independent replica per (model, class,
// phase).
func crossModelSource(o Options, sys *core.System, model, class int, streamID uint64) (adversary.PIATSource, error) {
	gw, err := sys.Gateway(class, streamID)
	if err != nil {
		return nil, err
	}
	stream := xrand.NewStream(o.Seed ^ streamID*0x9e3779b97f4a7c15 ^ uint64(model+1)<<32 ^ uint64(class+1)<<48)
	var cross traffic.Model
	switch model {
	case 0:
		cross, err = traffic.PoissonModel(crossModelUtil / crossModelSvc)
	case 1:
		// mean train length 5, arriving nearly at once (a burst from
		// a faster upstream link), so a whole train piles into the
		// queue ahead of an unlucky padded packet
		cross, err = traffic.TrainModel(crossModelUtil/crossModelSvc, 5, crossModelSvc/10)
	default:
		return nil, fmt.Errorf("experiment: unknown cross model %d", model)
	}
	if err != nil {
		return nil, err
	}
	cross.Start(stream)
	router, err := netem.NewRouter(gw, cross, crossModelSvc, 0)
	if err != nil {
		return nil, err
	}
	return netem.NewDiffer(router, nil), nil
}

// ablationCrossModelCells replays the Fig. 6 setting through the
// *exact* per-packet router with two crossover-traffic models at equal
// utilization: Poisson (the lab generator assumption) and packet trains
// (bursty, back-to-back batches — closer to real campus traffic). Longer
// busy periods disturb the padded PIATs more per cross-byte, so burstier
// cross traffic is better cover at the same utilization — a dimension
// the paper's lab generator could not sweep. Cell i is cross model i.
var ablationCrossModelCells = &cellExperiment{
	title:   "Cross-traffic burstiness at equal utilization (exact router), CIT, n=1000",
	columns: []string{"model", "var_emp", "ent_emp"},
	ncells:  func(Options) int { return 2 },
	run: func(o Options, model int) ([]float64, error) {
		sys, err := core.NewSystem(labConfig(o))
		if err != nil {
			return nil, err
		}
		windows := o.windows(60)
		row := []float64{float64(model)}
		labels := sys.Labels()
		for _, f := range secondOrderFeatures {
			// One continuous replica per class and phase, distinct per
			// feature; each reduces to `windows` consecutive windows.
			base := uint64(1000*int(f) + 1)
			phase := func(streamID uint64) ([][][]float64, error) {
				mats := make([][][]float64, len(labels))
				for class := range mats {
					src := func(int) (adversary.PIATSource, error) {
						return crossModelSource(o, sys, model, class, streamID)
					}
					mat, err := adversary.SessionFeatureMatrix(src, []adversary.Extractor{{Feature: f}}, 1, windows, 1000, 1)
					if err != nil {
						return nil, err
					}
					mats[class] = mat
				}
				return mats, nil
			}
			train, err := phase(base)
			if err != nil {
				return nil, err
			}
			eval, err := phase(base + 1)
			if err != nil {
				return nil, err
			}
			cls, err := adversary.Fit(labels, train, false)
			if err != nil {
				return nil, err
			}
			cm := bayes.NewConfusion(labels)
			var preds []int
			for class, mat := range eval {
				preds = cls[0].ClassifyBatch(mat[0], preds)
				for _, pred := range preds {
					cm.Add(class, pred)
				}
			}
			row = append(row, cm.DetectionRate())
		}
		return row, nil
	},
	notes: func(o Options, t *Table) {
		t.Notef("model codes: 0=poisson 1=trains(mean length 5, back-to-back); utilization %.1f on both", crossModelUtil)
		t.Notef("%d train/%d eval windows per class", o.windows(60), o.windows(60))
	},
}
