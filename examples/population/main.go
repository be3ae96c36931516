// Population demonstrates the multi-user engine end to end: dozens of
// senders with private recipient profiles share a padded infrastructure,
// and a global passive adversary runs the two canonical population-scale
// attacks against it — statistical disclosure (who talks to whom, from
// mix rounds) and per-flow throughput-fingerprint correlation (which
// egress flow belongs to which ingress user). Cover traffic resists the
// first; timer padding defeats the second. In between, the SDA arms
// race: stronger estimators against pool mixes and adaptive dummies.
//
// Run with: go run ./examples/population
package main

import (
	"context"
	"fmt"
	"log"

	"linkpad"
)

func main() {
	sys, err := linkpad.NewSystem(linkpad.DefaultLabConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Every attack below goes through the unified scenario API: build
	// the spec once, run it, read the protocol's slot of the result.
	run := func(spec linkpad.Spec) *linkpad.ScenarioResult {
		sc, err := sys.Build(spec)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sc.Run(context.Background(), linkpad.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	// Part 1: statistical disclosure against the shared batching mix.
	// Every round the mix flushes 8 messages; the adversary contrasts
	// rounds with and without each target until the target's contact set
	// stands out of the background. Cover traffic (dummy messages to
	// random recipients) buys rounds.
	fmt.Println("statistical disclosure: 48 users, 60 recipients, 3 contacts each")
	for _, cover := range []float64{0, 2} {
		res := run(linkpad.DisclosureSpec{
			Population: linkpad.PopulationSpec{
				Users:      48,
				Recipients: 60,
				CoverRate:  cover,
			},
			Disclosure: linkpad.DisclosureConfig{MaxRounds: 6000},
		}).Disclosure
		fmt.Printf("  cover %.0fx: %2.0f%% of targets disclosed, mean %4.0f rounds, residual anonymity %.2f\n",
			cover, 100*res.DisclosedFrac, res.MeanRounds, res.MeanAnonymity)
	}

	// Part 2: the SDA arms race. Upgrade both sides — the adversary
	// swaps the classic round-contrast estimator for least-squares
	// (which models how *many* messages the target contributed per
	// round, not just whether it sent), the mix pools messages across
	// round boundaries, and the targets re-address their cover traffic
	// at the estimator's current top false suspects. Each upgrade moves
	// the rounds-to-disclosure needle in its own direction.
	fmt.Println("SDA arms race: 24 users, pool mix, 2500-round budget")
	for _, duel := range []struct {
		name string
		est  linkpad.EstimatorKind
		dum  linkpad.DummyPolicy
	}{
		{"classic vs uniform dummies ", linkpad.EstimatorClassic, linkpad.DummyUniform},
		{"least-squares vs uniform   ", linkpad.EstimatorLeastSquares, linkpad.DummyUniform},
		{"least-squares vs adaptive  ", linkpad.EstimatorLeastSquares, linkpad.DummyAdaptive},
	} {
		res := run(linkpad.DisclosureSpec{
			Population: linkpad.PopulationSpec{
				Users:      24,
				Recipients: 60,
				CoverRate:  1,
				Dummies:    duel.dum,
			},
			Disclosure: linkpad.DisclosureConfig{
				Batch:     48,
				Mix:       linkpad.MixPolicySpec{Kind: linkpad.MixPool},
				Estimator: duel.est,
				MaxRounds: 2500,
			},
		}).Disclosure
		fmt.Printf("  %s: %3.0f%% disclosed, mean %4.0f rounds\n",
			duel.name, 100*res.DisclosedFrac, res.MeanRounds)
	}

	// Part 3: per-flow correlation against padded links. The adversary
	// matches egress flows to ingress users by windowed rate correlation
	// plus the paper's PIAT class features. Unpadded links lose every
	// flow; CIT padding shrinks the leak to the rate class.
	fmt.Println("flow correlation: 24 users, 60 s of observation per flow")
	spec := linkpad.PopulationSpec{Users: 24, Recipients: 60}
	raw := run(linkpad.FlowCorrelationSpec{
		Population: spec,
		Corr:       linkpad.FlowCorrConfig{Duration: 60, Raw: true},
	}).FlowCorr
	fmt.Printf("  unpadded: %3.0f%% of flows matched (mean rate correlation %.2f)\n",
		100*raw.Accuracy, raw.MeanCorrTrue)
	cit := run(linkpad.FlowCorrelationSpec{
		Population: spec,
		Corr: linkpad.FlowCorrConfig{
			Duration: 60,
			Features: []linkpad.Feature{linkpad.FeatureVariance, linkpad.FeatureEntropy},
		},
	}).FlowCorr
	fmt.Printf("  CIT padded: %3.0f%% of flows matched (correlation %.2f), but class identified for %.0f%%\n",
		100*cit.Accuracy, cit.MeanCorrTrue, 100*cit.ClassAccuracy)
	fmt.Println("padding hides the individual inside the class; only cover traffic hides who talks to whom")
}
