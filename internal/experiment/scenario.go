package experiment

import (
	"context"

	"linkpad/internal/active"
	"linkpad/internal/adversary"
	"linkpad/internal/analytic"
	"linkpad/internal/cascade"
	"linkpad/internal/core"
	"linkpad/internal/population"
)

// scenario.go: the runners' bridge onto the unified scenario API. Every
// cell executes through Build + Scenario.Run; the helpers below keep the
// cell bodies as terse as the old per-protocol methods while routing
// through the one path. Worker widths and Monte Carlo budgets ride
// inside the protocol configs the cells already compute (Options.Scale
// is applied by the cells themselves, windows()/disclosureRounds(), so
// RunOptions stays zero here).

// runScenario builds and executes one spec with default options.
func runScenario(sys *core.System, spec core.Spec) (*core.Result, error) {
	sc, err := sys.Build(spec)
	if err != nil {
		return nil, err
	}
	return sc.Run(context.Background(), core.RunOptions{})
}

func runAttackSet(sys *core.System, cfg core.AttackConfig, features []analytic.Feature) ([]*core.AttackResult, error) {
	res, err := runScenario(sys, core.AttackSetSpec{Attack: cfg, Features: features})
	if err != nil {
		return nil, err
	}
	return res.AttackSet, nil
}

func runAttack(sys *core.System, cfg core.AttackConfig) (*core.AttackResult, error) {
	set, err := runAttackSet(sys, cfg, []analytic.Feature{cfg.Feature})
	if err != nil {
		return nil, err
	}
	return set[0], nil
}

// detectionRow runs one attack set and returns key followed by each
// feature's detection rate: the row of a replica sweep cell.
func detectionRow(sys *core.System, key float64, cfg core.AttackConfig, features []analytic.Feature) ([]float64, error) {
	set, err := runAttackSet(sys, cfg, features)
	if err != nil {
		return nil, err
	}
	row := []float64{key}
	for _, res := range set {
		row = append(row, res.DetectionRate)
	}
	return row, nil
}

func runSessionAttack(sys *core.System, cfg core.SessionAttackConfig) (*core.SessionAttackResult, error) {
	res, err := runScenario(sys, core.SessionAttackSpec{Session: cfg})
	if err != nil {
		return nil, err
	}
	return res.Session, nil
}

func runDisclosure(sys *core.System, spec core.PopulationSpec, cfg population.DisclosureConfig) (*population.DisclosureResult, error) {
	res, err := runScenario(sys, core.DisclosureSpec{Population: spec, Disclosure: cfg})
	if err != nil {
		return nil, err
	}
	return res.Disclosure, nil
}

func runFlowCorrelation(sys *core.System, spec core.PopulationSpec, cfg core.FlowCorrConfig) (*adversary.Correlation, error) {
	res, err := runScenario(sys, core.FlowCorrelationSpec{Population: spec, Corr: cfg})
	if err != nil {
		return nil, err
	}
	return res.FlowCorr, nil
}

func runCascadeCorrelation(sys *core.System, spec core.CascadeSpec, cfg core.CascadeCorrConfig) (*cascade.Result, error) {
	res, err := runScenario(sys, core.CascadeCorrelationSpec{Cascade: spec, Corr: cfg})
	if err != nil {
		return nil, err
	}
	return res.Cascade, nil
}

func runActiveDetection(sys *core.System, spec core.ActiveSpec, cfg core.ActiveDetectConfig) (*active.Result, error) {
	res, err := runScenario(sys, core.ActiveDetectionSpec{Active: spec, Detect: cfg})
	if err != nil {
		return nil, err
	}
	return res.Active, nil
}
